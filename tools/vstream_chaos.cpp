// vstream_chaos — crash-safety and host-fault harness for vstream-sim.
//
//   vstream_chaos [--sim PATH] [--sessions N] [--seed S]
//                 [--shards LIST] [--threads LIST] [--profiles LIST]
//                 [--kills N] [--interval N] [--chaos-seed S]
//                 [--failpoints default|LIST] [--fp-rounds N]
//                 [--scratch DIR]
//
// Two campaign modes share one invariant — every run either completes
// with CSVs byte-identical to a clean run, or exits with a documented
// status and a one-line diagnostic.  Never a silently corrupt export,
// never a hang.
//
// Kill campaign (default).  For every (shard count, thread count, fault
// profile) configuration it:
//
//   1. runs vstream-sim once, uninterrupted and single-threaded,
//      exporting the reference CSVs;
//   2. runs the same scenario with --checkpoint --resume at the case's
//      --threads value, delivering SIGKILL at randomized (seeded, hence
//      reproducible) points and resuming after each kill until the run
//      completes; and
//   3. byte-compares all five exported CSV files against the reference.
//
// A kill can land anywhere — mid-batch, mid-spill-write, mid-checkpoint
// rename — so a pass demonstrates the whole durability chain: CRC-framed
// spill blocks, flush-before-commit ordering, atomic sidecar replacement,
// and truncate-to-committed on resume.  Threaded cases are the
// threaded-resume scenario: the reference runs on one thread, the
// killed-and-resumed runs on several, so a pass proves the physical
// thread count changes nothing — not even across a chain of SIGKILLs.
//
// Failpoint campaign (--failpoints).  Host faults are injected
// deterministically through the VSTREAM_FAILPOINTS registry
// (src/failpoints/failpoint.h) at a rotating set of fire points, and
// each armed run must land in its site's documented failure class:
//
//   degrade (checkpoint.*)   exit 0, warn once on stderr, CSVs
//                            byte-identical — a failed sidecar write
//                            never aborts or corrupts the run;
//   abort (spill.*, export.*, runtime.task_stall=error)
//                            exit 3 with a one-line diagnostic; a resume
//                            WITHOUT the failpoint then completes
//                            byte-identical (committed blocks survive);
//   stall (runtime.task_stall=stall:MS)
//                            exit 0 and byte-identical; with
//                            VSTREAM_WATCHDOG_MS below the stall the
//                            watchdog names the stuck task on stderr.
//
// A fire point past the site's evaluation count never fires — the run
// must then complete cleanly and byte-identical (the armed-but-idle
// contract).  --kills N > 0 additionally SIGKILLs armed attempts at
// random points, overlapping a crash with the host fault.  Any other
// exit status, a missing diagnostic, or an attempt outliving the hang
// deadline fails the campaign.
//
// Exit status: 0 when every configuration passes, 1 on any invariant
// violation (mismatch, undocumented exit, silent failure, hang), 2 on
// usage/setup errors.

#include <sys/types.h>
#include <sys/wait.h>

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/env_util.h"

namespace {

namespace fs = std::filesystem;

constexpr const char* kCsvFiles[] = {
    "player_sessions.csv", "cdn_sessions.csv", "player_chunks.csv",
    "cdn_chunks.csv", "tcp_snapshots.csv"};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--sim PATH] [--sessions N] [--seed S]\n"
      "          [--shards LIST] [--threads LIST] [--profiles LIST]\n"
      "          [--kills N] [--interval N] [--chaos-seed S]\n"
      "          [--failpoints default|LIST] [--fp-rounds N]\n"
      "          [--scratch DIR]\n"
      "defaults: --shards 1,2,4,8 --threads 1 --profiles none,eventful\n"
      "          --kills 3 --sessions 600 --interval 50 (per case)\n"
      "--failpoints switches to the failpoint campaign; LIST holds\n"
      "trigger-free specs (spill.write=error,runtime.task_stall=stall:200)\n"
      "and 'default' expands to every registered site.  --fp-rounds N runs\n"
      "each spec at N rotating fire points (default 1); --kills > 0 mixes\n"
      "SIGKILLs into armed attempts.\n",
      argv0);
  std::exit(2);
}

std::vector<std::string> split_csv(const std::string& raw) {
  std::vector<std::string> out;
  std::stringstream ss(raw);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Spawn `args` (args[0] = binary) with stdout discarded; returns the pid.
/// The failpoint/watchdog variables are scrubbed in the child before
/// `extra_env` entries ("NAME=VALUE") are applied, so each attempt sees
/// exactly the injection state the campaign chose — never a stale
/// inherited one.  A non-empty `stderr_path` captures the child's stderr
/// for diagnostic assertions.
pid_t spawn(const std::vector<std::string>& args,
            const std::vector<std::string>& extra_env = {},
            const fs::path& stderr_path = {}) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) {
      ::dup2(null_fd, STDOUT_FILENO);
      ::close(null_fd);
    }
    if (!stderr_path.empty()) {
      const int err_fd =
          ::open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (err_fd >= 0) {
        ::dup2(err_fd, STDERR_FILENO);
        ::close(err_fd);
      }
    }
    ::unsetenv("VSTREAM_FAILPOINTS");
    ::unsetenv("VSTREAM_WATCHDOG_MS");
    ::unsetenv("VSTREAM_WATCHDOG_FATAL");
    for (const std::string& kv : extra_env) {
      const std::size_t eq = kv.find('=');
      if (eq != std::string::npos) {
        ::setenv(kv.substr(0, eq).c_str(), kv.c_str() + eq + 1, 1);
      }
    }
    ::execv(argv[0], argv.data());
    std::perror("execv");  // only reached on failure
    ::_exit(127);
  }
  return pid;
}

struct ChildExit {
  bool exited = false;   ///< child finished on its own
  int status = 0;        ///< exit status when `exited`
  bool killed = false;   ///< we delivered SIGKILL
};

/// Wait up to `deadline_ms`; if the child is still running then, SIGKILL
/// it.  SIGKILL is the point: the child gets no chance to flush, close or
/// clean up — exactly what a power cut or OOM kill looks like.
ChildExit wait_or_kill(pid_t pid, long deadline_ms) {
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    int status = 0;
    const pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid) {
      ChildExit r;
      r.exited = true;
      r.status = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
      return r;
    }
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    if (deadline_ms >= 0 && elapsed >= deadline_ms) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      ChildExit r;
      r.killed = true;
      return r;
    }
    ::usleep(2'000);
  }
}

int wait_for(pid_t pid) {
  return wait_or_kill(pid, -1).status;
}

bool files_identical(const fs::path& a, const fs::path& b) {
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  std::stringstream sa, sb;
  sa << fa.rdbuf();
  sb << fb.rdbuf();
  return sa.str() == sb.str();
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Byte-compare every exported CSV against the reference set.
bool compare_csvs(const fs::path& clean_csv, const fs::path& chaos_csv) {
  bool ok = true;
  for (const char* file : kCsvFiles) {
    if (!files_identical(clean_csv / file, chaos_csv / file)) {
      std::fprintf(stderr, "  MISMATCH: %s differs from the clean run\n",
                   (chaos_csv / file).string().c_str());
      ok = false;
    }
  }
  return ok;
}

struct Config {
  std::string sim;
  std::size_t sessions = 600;
  std::uint64_t seed = 20160516;
  std::size_t kills = 3;
  std::size_t interval = 50;
  std::uint64_t chaos_seed = 1234;
  /// Trigger-free failpoint specs; non-empty selects the failpoint
  /// campaign instead of the kill campaign.
  std::vector<std::string> failpoints;
  std::size_t fp_rounds = 1;
  fs::path scratch = "chaos-scratch";
};

struct CaseResult {
  std::size_t shards = 0;
  std::size_t threads = 1;
  std::string profile;
  std::size_t kills_delivered = 0;
  std::size_t attempts = 0;
  bool ok = false;
};

std::vector<std::string> sim_args(const Config& cfg, std::size_t shards,
                                  std::size_t threads,
                                  const std::string& profile) {
  std::vector<std::string> args = {cfg.sim,
                                   "--sessions", std::to_string(cfg.sessions),
                                   "--seed", std::to_string(cfg.seed),
                                   "--shards", std::to_string(shards),
                                   "--threads", std::to_string(threads)};
  if (profile != "none") {
    args.push_back("--fault-profile");
    args.push_back(profile);
  }
  return args;
}

CaseResult run_case(const Config& cfg, std::size_t shards,
                    std::size_t threads, const std::string& profile,
                    std::mt19937_64& rng) {
  CaseResult result;
  result.shards = shards;
  result.threads = threads;
  result.profile = profile;

  const fs::path dir =
      cfg.scratch / ("s" + std::to_string(shards) + "-t" +
                     std::to_string(threads) + "-" + profile);
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path clean_csv = dir / "clean";
  const fs::path chaos_csv = dir / "chaos";
  const fs::path ckpt = dir / "ckpt";

  // 1. Uninterrupted reference run (plain in-memory telemetry on ONE
  // thread: the chaos run's CSVs must match it even across the
  // spill/export pipeline and a different physical thread count).
  std::vector<std::string> ref = sim_args(cfg, shards, 1, profile);
  ref.insert(ref.end(), {"--out", clean_csv.string()});
  const auto ref_start = std::chrono::steady_clock::now();
  if (const int status = wait_for(spawn(ref)); status != 0) {
    std::fprintf(stderr, "  reference run failed (exit %d)\n", status);
    return result;
  }
  const long clean_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - ref_start)
          .count();

  // Kill window scaled to the measured clean runtime so kills land while
  // the simulator is genuinely mid-run (early bias: resumed attempts are
  // shorter than the first).
  const long kill_min = std::max<long>(5, clean_ms / 20);
  const long kill_max = std::max<long>(kill_min + 1, clean_ms / 2);
  std::uniform_int_distribution<long> delay(kill_min, kill_max);

  // 2. Kill-and-resume loop.  --resume on the very first attempt is safe:
  // no sidecars means a fresh start.
  std::vector<std::string> chaos = sim_args(cfg, shards, threads, profile);
  chaos.insert(chaos.end(),
               {"--checkpoint", ckpt.string(), "--resume",
                "--checkpoint-interval", std::to_string(cfg.interval),
                "--out", chaos_csv.string()});
  for (;;) {
    ++result.attempts;
    const pid_t pid = spawn(chaos);
    if (result.kills_delivered < cfg.kills) {
      const ChildExit ended = wait_or_kill(pid, delay(rng));
      if (ended.killed) {
        ++result.kills_delivered;
        continue;  // resume on the next attempt
      }
      if (ended.status != 0) {
        std::fprintf(stderr, "  chaos attempt failed (exit %d)\n",
                     ended.status);
        return result;
      }
      break;  // finished before the kill timer — that's a completion
    }
    if (const int status = wait_for(pid); status != 0) {
      std::fprintf(stderr, "  final attempt failed (exit %d)\n", status);
      return result;
    }
    break;
  }

  // 3. Byte-compare every exported CSV against the reference.
  result.ok = compare_csvs(clean_csv, chaos_csv);
  return result;
}

// ---------------------------------------------------------------------------
// Failpoint campaign
// ---------------------------------------------------------------------------

enum class FpClass { kDegrade, kAbort, kStall };

/// Classify a trigger-free spec ("site=mode") into its documented failure
/// class: checkpoint.* sites degrade (the run must still complete and
/// export), stall modes only delay, everything else aborts with the
/// host-I/O status.
FpClass classify_spec(const std::string& spec) {
  const std::size_t eq = spec.find('=');
  const std::string site = spec.substr(0, eq);
  const std::string mode =
      eq == std::string::npos ? std::string() : spec.substr(eq + 1);
  if (site.rfind("checkpoint.", 0) == 0) return FpClass::kDegrade;
  if (mode.rfind("stall", 0) == 0) return FpClass::kStall;
  return FpClass::kAbort;
}

const char* class_name(FpClass cls) {
  switch (cls) {
    case FpClass::kDegrade: return "degrade";
    case FpClass::kAbort: return "abort";
    case FpClass::kStall: return "stall";
  }
  return "?";
}

/// The default campaign: every registered site in error mode, plus the
/// stall flavor of the task site (exercised under a 50 ms watchdog).
std::vector<std::string> default_failpoint_specs() {
  return {"spill.write=error",        "spill.flush=error",
          "checkpoint.write=error",   "checkpoint.rename=error",
          "export.open=error",        "export.write=error",
          "runtime.task_stall=error", "runtime.task_stall=stall:200"};
}

/// Fire points rotated across (spec index + round): the small indices hit
/// early and mid-run evaluations; the 2^20 entry deliberately never fires,
/// proving an armed-but-idle site leaves the run untouched.
constexpr std::size_t kFirePoints[] = {0, 2, 1, 4, 9, std::size_t{1} << 20};
constexpr std::size_t kFirePointCount =
    sizeof(kFirePoints) / sizeof(kFirePoints[0]);

struct FpRoundResult {
  std::size_t attempts = 0;
  std::size_t kills_delivered = 0;
  bool aborted = false;  ///< saw the documented exit-3 abort
  bool ok = false;
};

/// One armed round: arm `spec@once:fire_n`, require the documented
/// outcome for the spec's class, resume WITHOUT the failpoint after a
/// documented abort, and byte-compare the final CSVs against `clean_csv`.
FpRoundResult run_fp_round(const Config& cfg, std::size_t shards,
                           std::size_t threads, const std::string& spec,
                           FpClass cls, std::size_t fire_n, long clean_ms,
                           const fs::path& dir, const fs::path& clean_csv,
                           std::mt19937_64& rng) {
  FpRoundResult result;
  const fs::path chaos_csv = dir / "chaos";
  const fs::path ckpt = dir / "ckpt";
  const fs::path errfile = dir / "stderr.txt";
  fs::remove_all(chaos_csv);
  fs::remove_all(ckpt);

  std::vector<std::string> env = {"VSTREAM_FAILPOINTS=" + spec +
                                  "@once:" + std::to_string(fire_n)};
  if (cls == FpClass::kStall) env.push_back("VSTREAM_WATCHDOG_MS=50");

  // Hang deadline: a generous multiple of the measured clean runtime.
  // An attempt that outlives it is killed and fails the campaign — the
  // invariant bans hangs as firmly as it bans corruption.
  const long hang_ms = std::max<long>(15'000, 20 * clean_ms + 2'000);
  const long kill_min = std::max<long>(5, clean_ms / 20);
  const long kill_max = std::max<long>(kill_min + 1, clean_ms / 2);
  std::uniform_int_distribution<long> delay(kill_min, kill_max);
  std::uniform_int_distribution<int> coin(0, 1);

  std::vector<std::string> args = sim_args(cfg, shards, threads, "none");
  args.insert(args.end(),
              {"--checkpoint", ckpt.string(), "--resume",
               "--checkpoint-interval", std::to_string(cfg.interval),
               "--out", chaos_csv.string()});

  // The stall watchdog only reports when the stalled task runs on a
  // watched pool: >= 2 workers and >= 2 tasks in the parallel_for (the
  // inline path still stalls but nothing watches the calling thread).
  // Fire point 0 is always a shard task, so the report is guaranteed
  // exactly when the grid cell is genuinely parallel.
  const bool expect_watchdog =
      cls == FpClass::kStall && fire_n == 0 && threads >= 2 && shards >= 2;
  const bool expect_degrade_warn = cls == FpClass::kDegrade && fire_n == 0;

  bool armed = true;
  constexpr std::size_t kMaxAttempts = 12;
  for (;;) {
    if (++result.attempts > kMaxAttempts) {
      std::fprintf(stderr, "  FAIL %s@once:%zu: no completion after %zu attempts\n",
                   spec.c_str(), fire_n, kMaxAttempts);
      return result;
    }
    const pid_t pid =
        spawn(args, armed ? env : std::vector<std::string>{}, errfile);

    ChildExit ended;
    if (armed && result.kills_delivered < cfg.kills && coin(rng) == 1) {
      // Overlap a crash with the host fault: SIGKILL the armed attempt at
      // a random mid-run point, then retry still armed (a fresh process
      // re-evaluates the trigger from zero).
      ended = wait_or_kill(pid, delay(rng));
      if (ended.killed) {
        ++result.kills_delivered;
        continue;
      }
    } else {
      ended = wait_or_kill(pid, hang_ms);
      if (ended.killed) {
        std::fprintf(stderr, "  FAIL %s@once:%zu: HANG — no exit within %ld ms\n",
                     spec.c_str(), fire_n, hang_ms);
        return result;
      }
    }

    const std::string err = read_file(errfile);
    if (ended.status == 0) {
      if (armed && expect_degrade_warn &&
          err.find("checkpoint") == std::string::npos) {
        std::fprintf(stderr,
                     "  FAIL %s@once:%zu: degraded silently (no checkpoint "
                     "warning on stderr)\n",
                     spec.c_str(), fire_n);
        return result;
      }
      if (armed && expect_watchdog &&
          err.find("watchdog") == std::string::npos) {
        std::fprintf(stderr,
                     "  FAIL %s@once:%zu: stalled task drew no watchdog "
                     "report\n",
                     spec.c_str(), fire_n);
        return result;
      }
      result.ok = compare_csvs(clean_csv, chaos_csv);
      if (!result.ok) {
        std::fprintf(stderr, "  FAIL %s@once:%zu: output differs\n",
                     spec.c_str(), fire_n);
      }
      return result;
    }
    if (ended.status == 3 && armed && cls != FpClass::kDegrade) {
      // The documented host-I/O abort.  Silence here is a violation: the
      // contract is one diagnostic line naming the fault.
      if (err.empty()) {
        std::fprintf(stderr,
                     "  FAIL %s@once:%zu: exit 3 with EMPTY stderr (silent "
                     "failure)\n",
                     spec.c_str(), fire_n);
        return result;
      }
      result.aborted = true;
      armed = false;  // resume without the failpoint; must now complete
      continue;
    }
    std::fprintf(stderr,
                 "  FAIL %s@once:%zu: undocumented exit %d (%s, armed=%d)\n"
                 "    stderr: %s\n",
                 spec.c_str(), fire_n, ended.status, class_name(cls),
                 armed ? 1 : 0, err.empty() ? "<empty>" : err.c_str());
    return result;
  }
}

/// Run every spec x fire-point round on one (shards, threads) grid cell.
bool run_fp_cell(const Config& cfg, std::size_t shards, std::size_t threads,
                 std::mt19937_64& rng, std::size_t* total_kills,
                 std::size_t* total_aborts, std::size_t* total_rounds) {
  const fs::path dir = cfg.scratch / ("fp-s" + std::to_string(shards) + "-t" +
                                      std::to_string(threads));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path clean_csv = dir / "clean";

  std::vector<std::string> ref = sim_args(cfg, shards, 1, "none");
  ref.insert(ref.end(), {"--out", clean_csv.string()});
  const auto ref_start = std::chrono::steady_clock::now();
  if (const int status = wait_for(spawn(ref)); status != 0) {
    std::fprintf(stderr, "  reference run failed (exit %d)\n", status);
    return false;
  }
  const long clean_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - ref_start)
          .count();

  bool cell_ok = true;
  for (std::size_t s = 0; s < cfg.failpoints.size(); ++s) {
    const std::string& spec = cfg.failpoints[s];
    const FpClass cls = classify_spec(spec);
    for (std::size_t round = 0; round < cfg.fp_rounds; ++round) {
      const std::size_t fire_n = kFirePoints[(s + round) % kFirePointCount];
      const FpRoundResult r = run_fp_round(cfg, shards, threads, spec, cls,
                                           fire_n, clean_ms, dir, clean_csv,
                                           rng);
      std::printf("  %-34s once:%-8zu %-8s %s  (attempts=%zu kills=%zu%s)\n",
                  spec.c_str(), fire_n, class_name(cls),
                  r.ok ? "ok" : "FAILED", r.attempts, r.kills_delivered,
                  r.aborted ? " aborted+resumed" : "");
      std::fflush(stdout);
      *total_kills += r.kills_delivered;
      *total_aborts += r.aborted ? 1 : 0;
      ++*total_rounds;
      cell_ok = cell_ok && r.ok;
    }
  }
  return cell_ok;
}

int run_failpoint_campaign(const Config& cfg,
                           const std::vector<std::string>& shard_list,
                           const std::vector<std::string>& thread_list) {
  std::mt19937_64 rng(cfg.chaos_seed);
  bool all_ok = true;
  std::size_t cells = 0, total_kills = 0, total_aborts = 0, total_rounds = 0;
  for (const std::string& shards : shard_list) {
    for (const std::string& threads : thread_list) {
      std::printf("chaos failpoints: shards=%s threads=%s kills=%s ...\n",
                  shards.c_str(), threads.c_str(),
                  cfg.kills > 0 ? "on" : "off");
      std::fflush(stdout);
      const bool ok = run_fp_cell(
          cfg, vstream::sim::parse_uint("--shards", shards),
          vstream::sim::parse_uint("--threads", threads), rng,
          &total_kills, &total_aborts, &total_rounds);
      all_ok = all_ok && ok;
      ++cells;
    }
  }
  std::printf("chaos failpoint summary: %zu cells, %zu rounds, %zu documented "
              "aborts resumed, %zu SIGKILLs, %s\n",
              cells, total_rounds, total_aborts, total_kills,
              all_ok ? "no silent corruption" : "FAILED");
  return all_ok ? 0 : 1;
}

int run_tool(int argc, char** argv) {
  Config cfg;
  std::vector<std::string> shard_list = {"1", "2", "4", "8"};
  std::vector<std::string> thread_list = {"1"};
  std::vector<std::string> profiles = {"none", "eventful"};

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--sim") {
      cfg.sim = next();
    } else if (arg == "--sessions") {
      cfg.sessions = vstream::sim::parse_uint("--sessions", next());
    } else if (arg == "--seed") {
      cfg.seed = vstream::sim::parse_uint("--seed", next(), 0);
    } else if (arg == "--shards") {
      shard_list = split_csv(next());
    } else if (arg == "--threads") {
      thread_list = split_csv(next());
    } else if (arg == "--profiles") {
      profiles = split_csv(next());
    } else if (arg == "--kills") {
      cfg.kills = vstream::sim::parse_uint("--kills", next(), 0);
    } else if (arg == "--interval") {
      cfg.interval = vstream::sim::parse_uint("--interval", next());
    } else if (arg == "--chaos-seed") {
      cfg.chaos_seed = vstream::sim::parse_uint("--chaos-seed", next(), 0);
    } else if (arg == "--failpoints") {
      const std::string list = next();
      cfg.failpoints =
          list == "default" ? default_failpoint_specs() : split_csv(list);
      if (cfg.failpoints.empty()) usage(argv[0]);
    } else if (arg == "--fp-rounds") {
      cfg.fp_rounds = vstream::sim::parse_uint("--fp-rounds", next());
    } else if (arg == "--scratch") {
      cfg.scratch = next();
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      usage(argv[0]);
    }
  }
  if (cfg.sim.empty()) {
    // Default: the vstream-sim that was built next to this binary.
    cfg.sim = (fs::path(argv[0]).parent_path() / "vstream-sim").string();
  }
  if (!fs::exists(cfg.sim)) {
    std::fprintf(stderr, "simulator binary not found: %s (use --sim)\n",
                 cfg.sim.c_str());
    return 2;
  }

  if (!cfg.failpoints.empty()) {
    return run_failpoint_campaign(cfg, shard_list, thread_list);
  }

  std::mt19937_64 rng(cfg.chaos_seed);
  std::vector<CaseResult> results;
  std::size_t total_kills = 0;
  bool all_ok = true;
  for (const std::string& profile : profiles) {
    for (const std::string& shards : shard_list) {
      for (const std::string& threads : thread_list) {
        std::printf("chaos: shards=%s threads=%s profile=%s ...\n",
                    shards.c_str(), threads.c_str(), profile.c_str());
        std::fflush(stdout);
        const CaseResult r = run_case(
            cfg, static_cast<std::size_t>(std::atol(shards.c_str())),
            static_cast<std::size_t>(std::atol(threads.c_str())), profile,
            rng);
        std::printf("  %s  (attempts=%zu kills=%zu)\n",
                    r.ok ? "identical to clean run" : "FAILED", r.attempts,
                    r.kills_delivered);
        std::fflush(stdout);
        total_kills += r.kills_delivered;
        all_ok = all_ok && r.ok;
        results.push_back(r);
      }
    }
  }

  std::printf("chaos summary: %zu configurations, %zu SIGKILLs delivered, "
              "%s\n",
              results.size(), total_kills, all_ok ? "all identical" : "FAILED");
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_tool(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "vstream-chaos: error: %s\n", error.what());
    return 2;
  }
}

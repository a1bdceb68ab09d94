// perfbench: one iteration of one repository-benchmark workload.
//
//   perfbench --workload paper_serial|paper_parallel|overload_spill
//             --seed N --scratch DIR [--trace]
//
// Runs the workload once through the public entry points of the src/
// modules, in the order engine::run_simulation and tools/vstream_sim.cpp
// call them, checks the outputs, and prints one JSON object on stdout.
// perfbench/run.py starts a fresh process per iteration, so the CPU time
// and peak RSS reported here belong to this iteration alone.
//
// Untraced, the simulation goes through engine::run_sharded exactly as
// run_simulation does.  With --trace every call into a layer is timed,
// and memory-mode runs call partition_sessions, Shard::run and
// merge_shard_results directly so that shard work and the merge are timed
// apart.  Both variants must produce the same record digest.
//
// The workload fixes the session count and the thread count (1, or every
// core in the affinity mask).  Every input is passed to the program
// explicitly (threads, shards, spill directory, spill format, fault
// profile); the process refuses to start when any VSTREAM_* variable is
// set, because the measured code would read it.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/qoe.h"
#include "core/streaming.h"
#include "engine/admission.h"
#include "engine/attribution.h"
#include "engine/engine.h"
#include "engine/replay.h"
#include "engine/shard.h"
#include "engine/sharded_runner.h"
#include "engine/warmup.h"
#include "faults/fault_schedule.h"
#include "runtime/executor.h"
#include "telemetry/export.h"
#include "telemetry/join.h"
#include "telemetry/proxy_filter.h"
#include "telemetry/spill_format.h"
#include "workload/population.h"
#include "workload/scenario.h"
#include "workload/session_generator.h"

extern char** environ;

namespace fs = std::filesystem;
using namespace vstream;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User plus system CPU seconds of this process, all threads included.
double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

constexpr double kMiB = 1024.0 * 1024.0;

/// Worst sessions attributed on overload_spill, as in the roadmap's
/// worst-20 attribution campaign.
constexpr std::size_t kWorstSessions = 20;

/// The engine's default logical partition, used by every workload.
constexpr std::size_t kShards = 64;

enum class Workload { kPaperSerial, kPaperParallel, kOverloadSpill };

/// Sessions per world are sized so that one iteration takes two to four
/// seconds on a 4-core host; paper_serial is large enough that the shard
/// run, not the fixed warm-archive build, is most of its wall time.
struct WorkloadSpec {
  const char* name;
  Workload workload;
  std::size_t sessions;
  bool parallel;  // threads = every core in the affinity mask, else 1
};

constexpr WorkloadSpec kWorkloads[] = {
    {"paper_serial", Workload::kPaperSerial, 3000, false},
    {"paper_parallel", Workload::kPaperParallel, 4000, true},
    {"overload_spill", Workload::kOverloadSpill, 4000, true},
};

std::size_t affinity_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

struct Config {
  Workload workload = Workload::kPaperSerial;
  std::string name;
  std::uint64_t seed = 0;
  std::size_t sessions = 0;
  std::size_t threads = 0;
  fs::path scratch;
  bool trace = false;
};

/// Layer timings (ms) and counters of one iteration.  span() times its
/// body only when tracing is on; untraced it just runs it.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  template <typename F>
  auto span(const char* name, F&& body) {
    const Clock::time_point start = enabled_ ? Clock::now() : Clock::time_point{};
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      body();
      record(name, start);
    } else {
      auto result = body();
      record(name, start);
      return result;
    }
  }

  void set(const std::string& name, double value) { values_[name] = value; }
  double get(const std::string& name) const { return values_.at(name); }
  const std::map<std::string, double>& values() const { return values_; }

 private:
  void record(const char* name, Clock::time_point start) {
    if (enabled_) set(name, seconds_since(start) * 1000.0);
  }

  bool enabled_;
  std::map<std::string, double> values_;
};

/// Output checks of one iteration; failures are program errors, never
/// simulated outcomes.
class Checks {
 public:
  void expect(bool ok, const std::string& what) { tally(1, ok ? 0 : 1, what); }
  /// `attempted` checks of one kind, `failed` of them failed.
  void tally(std::size_t attempted, std::size_t failed, const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed != 0 && failures_.size() < 10) failures_.push_back(what);
  }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Order-sensitive 64-bit digest of a record stream, fed field by field
/// (struct padding never reaches it).
class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
    std::uint64_t word = 0;
    std::memcpy(&word, &value, sizeof(T));
    mix(word);
  }
  void add(const std::string& text) {
    add(text.size());
    for (std::size_t i = 0; i < text.size(); i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, text.data() + i, std::min<std::size_t>(8, text.size() - i));
      mix(word);
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, hash_);
    return buf;
  }

 private:
  void mix(std::uint64_t word) {
    hash_ = (hash_ ^ word) * 0x100000001b3ull;
    hash_ ^= hash_ >> 29;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::string digest_of(const std::vector<telemetry::PlayerSessionRecord>& rows) {
  Digest d;
  for (const auto& r : rows) {
    d.add(r.session_id); d.add(r.client_ip); d.add(r.user_agent);
    d.add(r.video_duration_s); d.add(r.start_time_ms); d.add(r.startup_ms);
    d.add(r.chunks_requested); d.add(r.completed);
  }
  return d.hex();
}

std::string digest_of(const std::vector<telemetry::CdnSessionRecord>& rows) {
  Digest d;
  for (const auto& r : rows) {
    d.add(r.session_id); d.add(r.observed_ip); d.add(r.observed_user_agent);
    d.add(r.pop); d.add(r.server); d.add(r.org); d.add(r.access);
    d.add(r.city); d.add(r.country); d.add(r.client_distance_km);
  }
  return d.hex();
}

std::string digest_of(const std::vector<telemetry::PlayerChunkRecord>& rows) {
  Digest d;
  for (const auto& r : rows) {
    d.add(r.session_id); d.add(r.chunk_id); d.add(r.request_sent_ms);
    d.add(r.dfb_ms); d.add(r.dlb_ms); d.add(r.bitrate_kbps);
    d.add(r.rebuffer_ms); d.add(r.rebuffer_count); d.add(r.visible);
    d.add(r.avg_fps); d.add(r.dropped_frames); d.add(r.total_frames);
    d.add(r.retries); d.add(r.timeouts); d.add(r.failed_over);
    d.add(r.recovery_ms);
  }
  return d.hex();
}

std::string digest_of(const std::vector<telemetry::CdnChunkRecord>& rows) {
  Digest d;
  for (const auto& r : rows) {
    d.add(r.session_id); d.add(r.chunk_id); d.add(r.dwait_ms);
    d.add(r.dopen_ms); d.add(r.dread_ms); d.add(r.dbe_ms);
    d.add(r.cache_level); d.add(r.chunk_bytes); d.add(r.pop);
    d.add(r.server); d.add(r.served_stale); d.add(r.shed); d.add(r.hedged);
    d.add(r.hedge_won); d.add(r.budget_denied); d.add(r.served_swr);
    d.add(r.breaker);
  }
  return d.hex();
}

std::string digest_of(const std::vector<telemetry::TcpSnapshotRecord>& rows) {
  Digest d;
  for (const auto& r : rows) {
    d.add(r.session_id); d.add(r.chunk_id); d.add(r.at_ms);
    d.add(r.info.srtt_ms); d.add(r.info.rttvar_ms); d.add(r.info.cwnd_segments);
    d.add(r.info.ssthresh_segments); d.add(r.info.mss_bytes);
    d.add(r.info.total_retrans); d.add(r.info.segments_out);
    d.add(r.info.bytes_acked); d.add(r.info.in_slow_start);
  }
  return d.hex();
}

/// Non-proxy sessions whose player and CDN chunk records do not pair 1:1
/// by (session, chunk id).
std::vector<std::uint64_t> unpaired_sessions(
    const telemetry::Dataset& data, const telemetry::ProxyFilterResult& proxies) {
  using Key = std::pair<std::uint64_t, std::uint32_t>;
  std::vector<Key> player;
  std::vector<Key> cdn;
  player.reserve(data.player_chunks.size());
  cdn.reserve(data.cdn_chunks.size());
  for (const auto& r : data.player_chunks) player.emplace_back(r.session_id, r.chunk_id);
  for (const auto& r : data.cdn_chunks) cdn.emplace_back(r.session_id, r.chunk_id);
  std::sort(player.begin(), player.end());
  std::sort(cdn.begin(), cdn.end());
  std::vector<std::uint64_t> bad;
  auto p = player.begin();
  auto c = cdn.begin();
  while (p != player.end() || c != cdn.end()) {
    const std::uint64_t session =
        c == cdn.end() || (p != player.end() && p->first < c->first) ? p->first
                                                                     : c->first;
    const auto other_session = [session](const Key& k) { return k.first != session; };
    const auto p_end = std::find_if(p, player.end(), other_session);
    const auto c_end = std::find_if(c, cdn.end(), other_session);
    const bool paired =
        std::equal(p, p_end, c, c_end) && std::adjacent_find(p, p_end) == p_end;
    if (!paired && !proxies.is_proxy(session)) bad.push_back(session);
    p = p_end;
    c = c_end;
  }
  return bad;
}

std::size_t count_lines(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  std::vector<char> buf(1 << 20);
  std::size_t lines = 0;
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    lines += static_cast<std::size_t>(
        std::count(buf.data(), buf.data() + in.gcount(), '\n'));
  }
  return lines;
}

std::uint64_t total_bytes(const std::vector<fs::path>& files) {
  std::uint64_t bytes = 0;
  for (const fs::path& file : files) bytes += fs::file_size(file);
  return bytes;
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// A factual replay reproduces its session bit-exactly (spill round trips
/// are exact too), so the QoE fields attribute_worst compares must be equal.
bool same_qoe(const analysis::SessionQoe& a, const analysis::SessionQoe& b) {
  return a.startup_ms == b.startup_ms && a.rebuffer_rate_pct == b.rebuffer_rate_pct &&
         a.rebuffer_events == b.rebuffer_events &&
         a.avg_bitrate_kbps == b.avg_bitrate_kbps && a.chunks == b.chunks;
}

/// Simulated component counts read from the outputs: for a fixed seed and
/// program they repeat exactly, whatever the host does.
std::map<std::string, double> component_counts(
    const telemetry::Dataset& data, const engine::GroundTruth& truth,
    const std::vector<cdn::ServerStats>& servers,
    const analysis::QoeAggregate& qoe) {
  std::map<std::string, double> c;
  c["client.chunks"] = static_cast<double>(data.player_chunks.size());
  c["client.startup_ms_p50"] = qoe.startup_ms.median;
  c["client.rebuffer_pct_p95"] = qoe.rebuffer_rate_pct.p95;
  c["client.failed_sessions"] = static_cast<double>(truth.failed_sessions);

  cdn::ServerStats sum;
  for (const cdn::ServerStats& s : servers) sum += s;
  const double requests = static_cast<double>(sum.requests_served);
  c["cdn.requests"] = requests;
  c["cdn.ram_hit_share"] = ratio(static_cast<double>(sum.ram_hits), requests);
  c["cdn.miss_share"] = ratio(static_cast<double>(sum.misses), requests);
  c["cdn.backend_requests"] = static_cast<double>(sum.backend_requests());
  c["cdn.shed"] = static_cast<double>(sum.shed_requests);
  c["cdn.hedged"] = static_cast<double>(sum.hedged_fetches);
  c["cdn.hedge_win_ratio"] = ratio(static_cast<double>(sum.hedge_wins),
                                   static_cast<double>(sum.hedged_fetches));

  // Connection counters are cumulative per session: a session's totals are
  // the largest values among its snapshots.
  std::uint64_t segments = 0, retrans = 0;
  std::vector<double> srtt;
  srtt.reserve(data.tcp_snapshots.size());
  for (std::size_t i = 0; i < data.tcp_snapshots.size();) {
    const std::uint64_t session = data.tcp_snapshots[i].session_id;
    std::uint64_t seg = 0, re = 0;
    for (; i < data.tcp_snapshots.size() &&
           data.tcp_snapshots[i].session_id == session;
         ++i) {
      const net::TcpInfo& info = data.tcp_snapshots[i].info;
      seg = std::max(seg, info.segments_out);
      re = std::max(re, info.total_retrans);
      srtt.push_back(info.srtt_ms);
    }
    segments += seg;
    retrans += re;
  }
  c["net.tcp_snapshots"] = static_cast<double>(data.tcp_snapshots.size());
  c["net.segments_out"] = static_cast<double>(segments);
  c["net.retrans_share"] =
      ratio(static_cast<double>(retrans), static_cast<double>(segments));
  c["net.srtt_ms_p50"] = median_of(std::move(srtt));
  return c;
}

void print_json_map(const std::map<std::string, double>& values) {
  std::printf("{");
  const char* sep = "";
  for (const auto& [name, value] : values) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}");
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += (ch == '\n') ? ' ' : ch;
  }
  return out + "\"";
}

int run_workload(const Config& cfg) {
  Tracer trace(cfg.trace);
  Checks checks;
  std::vector<std::string> notes;  // program defects that are not failed checks
  const engine::RunOptions defaults;  // run_simulation's world-shaping defaults
  const bool spill = cfg.workload == Workload::kOverloadSpill;
  const bool export_csv = cfg.workload == Workload::kPaperParallel;

  workload::Scenario scenario = workload::paper_scenario();
  scenario.seed = cfg.seed;
  scenario.session_count = cfg.sessions;
  faults::FaultSchedule faults;
  if (spill) faults = *faults::FaultSchedule::named("overload");
  const faults::FaultSchedule* fault_ptr = faults.empty() ? nullptr : &faults;

  const fs::path spill_dir = cfg.scratch / "spill";
  const fs::path export_dir = cfg.scratch / "export";

  const Clock::time_point start = Clock::now();

  // World and admission: the master-RNG consumption order of
  // engine::run_simulation.
  sim::Rng rng(scenario.seed);
  std::shared_ptr<workload::VideoCatalog> catalog;
  std::unique_ptr<workload::Population> population;
  std::unique_ptr<workload::SessionGenerator> generator;
  std::unique_ptr<cdn::Fleet> prototype;
  trace.span("workload.world_ms", [&] {
    catalog = std::make_shared<workload::VideoCatalog>(scenario.catalog, rng);
    population = std::make_unique<workload::Population>(scenario.population, rng);
    generator = std::make_unique<workload::SessionGenerator>(
        scenario.sessions, *catalog, *population);
    prototype = std::make_unique<cdn::Fleet>(scenario.fleet, catalog->size());
  });
  const engine::WarmArchive warm = trace.span("engine.warm_archive_ms", [&] {
    return engine::build_warm_archive(*prototype, *catalog, defaults.disk_fill,
                                      defaults.universal_head);
  });
  const std::vector<engine::AdmittedSession> admitted =
      trace.span("engine.admit_ms", [&] {
        return engine::admit_sessions(scenario, *generator, rng);
      });
  const double setup_s = seconds_since(start);

  // Simulation.
  engine::ExecOptions exec;
  exec.threads = cfg.threads;
  exec.spill_format = telemetry::kSpillVersionDefault;
  // Untraced runs collect the executor accounting too, so that the task
  // count, which the traced path below must reproduce, can be compared.
  runtime::ParallelStats parallel;
  const double sim_cpu_before = cpu_seconds();
  const Clock::time_point sim_start = Clock::now();
  engine::ShardResult merged;
  if (spill) {
    fs::create_directories(spill_dir);
    merged = trace.span("engine.shard_run_ms", [&] {
      return engine::run_sharded(scenario, *catalog, warm, fault_ptr, nullptr,
                                 admitted, kShards, &spill_dir, nullptr,
                                 &exec, &parallel);
    });
  } else if (!cfg.trace) {
    merged = engine::run_sharded(scenario, *catalog, warm, fault_ptr, nullptr,
                                 admitted, kShards, nullptr, nullptr, &exec,
                                 &parallel);
  } else {
    // run_sharded's memory mode, unrolled so that the shard tasks and the
    // canonical merge are timed apart: one task per kDefaultMemoryBatch
    // sessions of a shard with several workers, one per shard with one.
    // runtime.tasks is compared with the untraced run, so this copy cannot
    // drift from run_sharded's batching unnoticed.
    runtime::Executor executor(cfg.threads);
    std::vector<engine::ShardResult> results;
    trace.span("engine.shard_run_ms", [&] {
      const std::vector<std::vector<engine::AdmittedSession>> parts =
          engine::partition_sessions(admitted, kShards);
      const std::size_t batch_size =
          executor.workers() > 1 ? engine::kDefaultMemoryBatch : 0;
      struct Batch {
        std::size_t shard, offset, count;
      };
      std::vector<Batch> batches;
      for (std::size_t s = 0; s < parts.size(); ++s) {
        const std::size_t size = parts[s].size();
        std::size_t offset = 0;
        do {
          const std::size_t count =
              batch_size == 0 ? size : std::min(batch_size, size - offset);
          batches.push_back({s, offset, count});
          offset += count;
        } while (offset < size);
      }
      results.assign(batches.size(), engine::ShardResult{});
      executor.parallel_for(
          batches.size(),
          [&](std::size_t t) {
            const Batch& batch = batches[t];
            engine::Shard shard(scenario, *catalog, warm, fault_ptr, nullptr);
            results[t] = shard.run(std::span<const engine::AdmittedSession>(
                                       parts[batch.shard])
                                       .subspan(batch.offset, batch.count));
          },
          &parallel, "shard");
    });
    merged = trace.span("engine.merge_ms", [&] {
      return engine::merge_shard_results(
          std::move(results), executor.workers() > 1 ? &executor : nullptr);
    });
  }
  const double sim_wall_s = seconds_since(sim_start);
  const double sim_cpu_s = cpu_seconds() - sim_cpu_before;

  // Analysis, export, attribution.
  telemetry::Dataset& data = merged.dataset;
  analysis::QoeAggregate qoe;
  std::size_t dropped_incomplete = 0;
  telemetry::ProxyFilterResult proxies;
  telemetry::SpillSet spill_set;
  core::StreamingAnalysis streamed;
  telemetry::SpillReadStats load_stats;
  std::optional<engine::ReplayContext> replay;
  analysis::AttributionReport report;
  if (spill) {
    for (const fs::path& file : merged.spill_files) spill_set.add_file(file);
    streamed = trace.span("core.analyze_spill_ms", [&] {
      return core::analyze_spill(spill_set, catalog->chunk_duration_s(), {},
                                 cfg.threads);
    });
    qoe = streamed.qoe;
    dropped_incomplete = streamed.dropped_incomplete;
    proxies = streamed.proxies;
    // Worst-N attribution ranks sessions over the materialized dataset, as
    // vstream-sim --attribute-worst does for a spilled run.
    data = trace.span("telemetry.spill_load_ms",
                      [&] { return spill_set.load(&load_stats); });
    report = trace.span("engine.attribute_ms", [&] {
      engine::RunOptions replay_options;
      replay_options.faults = faults;
      replay.emplace(scenario, replay_options);
      engine::AttributionOptions options;
      options.worst_n = kWorstSessions;
      options.threads = cfg.threads;
      return engine::attribute_worst(*replay, data, options);
    });
  } else {
    proxies = trace.span("telemetry.proxy_filter_ms",
                         [&] { return telemetry::detect_proxies(data); });
    const telemetry::JoinedDataset joined = trace.span("telemetry.join_ms", [&] {
      return telemetry::JoinedDataset::build(data, &proxies);
    });
    qoe = trace.span("analysis.qoe_ms", [&] { return analysis::aggregate_qoe(joined); });
    dropped_incomplete = joined.dropped_incomplete();
    if (export_csv) {
      trace.span("telemetry.export_ms", [&] {
        runtime::Executor exporter(cfg.threads);
        telemetry::export_dataset(data, export_dir,
                                  exporter.workers() > 1 ? &exporter : nullptr);
      });
    }
  }
  const double wall_s = seconds_since(start);
  const double cpu_s = cpu_seconds();
  const double rss_mib = peak_rss_mib();

  // ---- everything below is outside the measured run ----

  // Every admitted session reaches player_sessions, in canonical order.
  std::size_t next = 0;
  std::size_t missing = 0;
  for (const engine::AdmittedSession& session : admitted) {
    const std::uint64_t id = session.spec.session_id;
    while (next < data.player_sessions.size() &&
           data.player_sessions[next].session_id < id) {
      ++next;
    }
    if (next == data.player_sessions.size() ||
        data.player_sessions[next].session_id != id) {
      ++missing;
    }
  }
  checks.tally(admitted.size(), missing,
               std::to_string(missing) + " admitted sessions missing from player_sessions");
  checks.expect(data.player_sessions.size() == admitted.size(),
                "player_sessions holds " +
                    std::to_string(data.player_sessions.size()) +
                    " records for " + std::to_string(admitted.size()) +
                    " admitted sessions");

  // Non-proxy sessions pair player and CDN chunk records 1:1.
  const std::vector<std::uint64_t> unpaired = unpaired_sessions(data, proxies);
  std::size_t non_proxy = 0;
  for (const telemetry::PlayerSessionRecord& r : data.player_sessions) {
    non_proxy += proxies.is_proxy(r.session_id) ? 0 : 1;
  }
  checks.tally(non_proxy, unpaired.size(),
               std::to_string(unpaired.size()) +
                   " non-proxy sessions have unpaired player/CDN chunk records" +
                   (unpaired.empty() ? "" : ", first " + std::to_string(unpaired[0])));
  checks.expect(dropped_incomplete == 0,
                std::to_string(dropped_incomplete) +
                    " sessions dropped by the join as incomplete");

  if (spill) {
    checks.tally(streamed.spill.blocks_ok + streamed.spill.blocks_skipped,
                 streamed.spill.blocks_skipped,
                 std::to_string(streamed.spill.blocks_skipped) +
                     " spill blocks skipped by analyze_spill");
    checks.expect(!streamed.spill.corrupted(), "analyze_spill saw spill damage");
    checks.expect(!load_stats.corrupted(), "SpillSet::load saw spill damage");
    // attribute_worst records which replays ran in a std::vector<bool>
    // written from several threads (src/engine/attribution.cc), a data race
    // that can drop a flag and mark a matching factual replay as diverged.
    // Replay each flagged session again, alone, against its baseline QoE.
    std::size_t matched = 0;
    std::size_t diverged = 0;
    std::size_t misflagged = 0;
    std::optional<telemetry::JoinedDataset> baseline;
    for (const analysis::SessionAttribution& s : report.sessions) {
      if (s.baseline_matches) {
        ++matched;
        continue;
      }
      if (!baseline) baseline = telemetry::JoinedDataset::build(data);
      const auto it = std::find_if(
          baseline->sessions().begin(), baseline->sessions().end(),
          [&](const telemetry::JoinedSession& j) { return j.session_id == s.session_id; });
      const auto again = replay->replay_session(s.session_id);
      if (it != baseline->sessions().end() && again.has_value() &&
          same_qoe(again->qoe, analysis::session_qoe(*it))) {
        ++misflagged;
      } else {
        ++diverged;
      }
    }
    checks.tally(report.sessions.size(), diverged,
                 std::to_string(diverged) + " factual replays do not match their baseline");
    if (misflagged != 0) {
      notes.push_back(std::to_string(misflagged) +
                      " factual replays flagged as diverged by attribute_worst match "
                      "their baseline when replayed alone");
    }
    checks.expect(report.sessions.size() == std::min(kWorstSessions, admitted.size()),
                  "attribution covered " + std::to_string(report.sessions.size()) +
                      " of " + std::to_string(kWorstSessions) + " worst sessions");
    const std::uint64_t spill_bytes = total_bytes(merged.spill_files);
    trace.set("telemetry.spill_mb", static_cast<double>(spill_bytes) / kMiB);
    trace.set("telemetry.spill_bytes_per_session",
              ratio(static_cast<double>(spill_bytes),
                    static_cast<double>(admitted.size())));
    trace.set("telemetry.spill_blocks_skipped",
              static_cast<double>(streamed.spill.blocks_skipped));
    trace.set("engine.replay_match_ratio",
              ratio(static_cast<double>(matched),
                    static_cast<double>(report.sessions.size())));
  }

  if (export_csv) {
    const std::pair<const char*, std::size_t> files[] = {
        {"player_sessions.csv", data.player_sessions.size()},
        {"cdn_sessions.csv", data.cdn_sessions.size()},
        {"player_chunks.csv", data.player_chunks.size()},
        {"cdn_chunks.csv", data.cdn_chunks.size()},
        {"tcp_snapshots.csv", data.tcp_snapshots.size()},
    };
    std::vector<fs::path> paths;
    for (const auto& [file, records] : files) {
      const fs::path path = export_dir / file;
      const bool exists = fs::exists(path);
      checks.expect(exists && count_lines(path) == records + 1,
                    std::string("export ") + file + " does not hold a header plus " +
                        std::to_string(records) + " rows");
      if (exists) paths.push_back(path);
    }
    trace.set("telemetry.export_mb", static_cast<double>(total_bytes(paths)) / kMiB);
  }

  std::map<std::string, double> counts =
      component_counts(data, merged.ground_truth, merged.server_stats, qoe);
  // Deterministic for a given world, so it is compared like the counts.
  counts["runtime.tasks"] = static_cast<double>(parallel.tasks);
  if (cfg.trace) {
    trace.set("engine.us_per_chunk",
              ratio(trace.get("engine.shard_run_ms") * 1000.0,
                    counts.at("client.chunks")));
    trace.set("runtime.steals", static_cast<double>(parallel.steals));
    trace.set("runtime.workers_used", static_cast<double>(parallel.workers_used()));
    trace.set("runtime.cpu_util",
              ratio(sim_cpu_s, sim_wall_s * static_cast<double>(cfg.threads)));
  }

  std::error_code ignored;
  fs::remove_all(spill_dir, ignored);
  fs::remove_all(export_dir, ignored);

  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"sessions\": %zu, \"threads\": %zu, \"shards\": %zu, "
              "\"trace\": %s, ",
              cfg.name.c_str(), cfg.seed, cfg.sessions, cfg.threads, kShards,
              cfg.trace ? "true" : "false");
  std::printf("\"wall_s\": %.17g, \"setup_s\": %.17g, \"cpu_s\": %.17g, "
              "\"peak_rss_mb\": %.17g, ",
              wall_s, setup_s, cpu_s, rss_mib);
  std::printf("\"checks_attempted\": %zu, \"checks_failed\": %zu, \"failures\": [",
              checks.attempted(), checks.failed());
  for (std::size_t i = 0; i < checks.failures().size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ", ", json_string(checks.failures()[i]).c_str());
  }
  std::printf("], \"notes\": [");
  for (std::size_t i = 0; i < notes.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ", ", json_string(notes[i]).c_str());
  }
  std::printf("], \"digest\": {\"player_sessions\": \"%s\", \"cdn_sessions\": \"%s\", "
              "\"player_chunks\": \"%s\", \"cdn_chunks\": \"%s\", "
              "\"tcp_snapshots\": \"%s\"}, ",
              digest_of(data.player_sessions).c_str(),
              digest_of(data.cdn_sessions).c_str(),
              digest_of(data.player_chunks).c_str(),
              digest_of(data.cdn_chunks).c_str(),
              digest_of(data.tcp_snapshots).c_str());
  std::printf("\"counts\": ");
  print_json_map(counts);
  std::printf(", \"layers\": ");
  print_json_map(cfg.trace ? trace.values() : std::map<std::string, double>{});
  std::printf("}\n");
  return 0;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper_serial|paper_parallel|overload_spill\n"
               "          --seed N --scratch DIR [--trace]\n",
               argv0);
  std::exit(2);
}

std::uint64_t seed_arg(const char* argv0, const char* raw) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0' || errno == ERANGE || raw[0] == '-') {
    std::fprintf(stderr, "%s: --seed needs a non-negative integer, got \"%s\"\n",
                 argv0, raw);
    std::exit(2);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "VSTREAM_", 8) == 0) {
      std::fprintf(stderr,
                   "%s: refusing to run with %s in the environment: the "
                   "measured code reads VSTREAM_* variables\n",
                   argv[0], *env);
      return 2;
    }
  }

  Config cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--workload") {
      cfg.name = value();
      const auto spec = std::find_if(
          std::begin(kWorkloads), std::end(kWorkloads),
          [&](const WorkloadSpec& w) { return cfg.name == w.name; });
      if (spec == std::end(kWorkloads)) usage(argv[0]);
      have_workload = true;
      cfg.workload = spec->workload;
      cfg.sessions = spec->sessions;
      cfg.threads = spec->parallel ? affinity_cores() : 1;
    } else if (arg == "--seed") {
      cfg.seed = seed_arg(argv[0], value());
    } else if (arg == "--scratch") {
      cfg.scratch = value();
    } else if (arg == "--trace") {
      cfg.trace = true;
    } else {
      usage(argv[0]);
    }
  }
  if (!have_workload || cfg.scratch.empty()) {
    usage(argv[0]);
  }

  try {
    return run_workload(cfg);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s: error: %s\n", argv[0], error.what());
    return 1;
  }
}

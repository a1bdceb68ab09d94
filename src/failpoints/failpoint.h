// Deterministic host-fault injection: named failpoint sites compiled
// into the I/O and task paths, armed at process start from the
// VSTREAM_FAILPOINTS environment variable.
//
// A *site* is a fixed, enumerated place in the code where the host can
// fail underneath us: a spill write, a checkpoint rename, a CSV flush, a
// shard task that stops making progress.  Sites are compiled in
// unconditionally; a disarmed site costs one relaxed atomic load (a few
// ns — measured as `failpoint_*` metrics in BENCH_hotpaths.json), so
// production runs pay nothing measurable for the instrumentation.
//
// Spec grammar (full definition in DESIGN.md "Host-fault taxonomy"):
//
//   VSTREAM_FAILPOINTS := spec (',' spec)*
//   spec    := site '=' mode ['@' trigger]
//   mode    := 'error'                 inject a host I/O failure
//            | 'stall:<ms>'            sleep <ms> at the site (task sites)
//   trigger := 'once:<n>'              fire exactly once, on armed
//                                      evaluation <n> (0-based)
//            | 'after:<n>'             fire on every armed evaluation
//                                      with index >= <n>
//            | 'prob:<p>[:<seed>]'     fire each evaluation with
//                                      probability p from a seeded
//                                      mt19937_64 (default seed: site
//                                      ordinal)
//            | (absent)                fire on every evaluation
//
//   VSTREAM_FAILPOINTS="spill.write=error@once:40,checkpoint.rename=error"
//
// `once:` / `after:` triggers are deterministic in the site's *armed
// evaluation count*: the N-th evaluation of a site fires regardless of
// thread interleaving whenever the site itself is evaluated a
// deterministic number of times (spill writes, in canonical block
// order; checkpoint commits; export flushes all are).  `prob:` draws from one per-site
// locked RNG, so the fire *count* distribution is reproducible for a
// seed but the mapping onto evaluations may vary with thread timing —
// chaos campaigns treat every outcome through the same invariant (clean
// bit-identical completion, or documented abort) so that is fine.
//
// Error injection never fabricates a parallel failure path: an `error`
// fire at an I/O site puts the *real* stream into a failed state (or
// returns true so the caller does), and the production error-checking
// code — the code a real full disk would exercise — detects it and
// throws sim::HostIoError.  The injected fault and the genuine fault
// take the same road.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace vstream::failpoints {

/// The compiled-in sites.  Adding one: extend the enum, kSiteNames, and
/// place a should_fail()/stall check where the host interaction happens.
enum class Site : std::uint8_t {
  kSpillWrite,        ///< SpillWriter::write — a record block write
  kSpillFlush,        ///< SpillWriter::flush_committed — durability flush
  kCheckpointWrite,   ///< engine write_checkpoint — sidecar tmp write
  kCheckpointRename,  ///< engine write_checkpoint — tmp -> sidecar rename
  kExportOpen,        ///< telemetry export — CSV ofstream open
  kExportWrite,       ///< telemetry export — CSV write / final flush
  kRuntimeTaskStall,  ///< runtime::Executor — before a task body runs
};
inline constexpr std::size_t kSiteCount = 7;

/// Canonical site name ("spill.write", ...), as used in specs.
const char* site_name(Site site);
/// Parse a site name; std::nullopt if unknown.
std::optional<Site> parse_site(std::string_view name);

/// What an armed site does when its trigger fires.
enum class Mode : std::uint8_t {
  kError,  ///< inject a host I/O failure through the real error path
  kStall,  ///< sleep stall_ms at the site (task sites; I/O sites just slow)
};

/// Per-site observability, for tests and the chaos harness.
struct SiteCounters {
  std::uint64_t evaluated = 0;  ///< armed evaluations (disarmed not counted)
  std::uint64_t fired = 0;      ///< evaluations whose trigger fired
};

/// Process-wide registry.  Arming/disarming is rare (startup, test
/// setup) and takes a lock; the evaluation fast path for a disarmed site
/// is a single relaxed atomic load.  Armed evaluations take the site
/// lock — sites are coarse (per session block, per checkpoint, per
/// export flush), never per chunk, so contention is irrelevant.
class Registry {
 public:
  static Registry& instance();

  /// Parse and arm a comma-separated spec list (see grammar above).
  /// Throws std::runtime_error naming the offending spec on any parse
  /// error — same strictness as the VSTREAM_* env contract.
  void arm(std::string_view specs);
  /// Arm from VSTREAM_FAILPOINTS; unset or empty arms nothing.
  void arm_from_env();
  /// Disarm every site and zero all counters.
  void disarm_all();

  /// True if any site is armed (cheap; used to skip diagnostics work).
  bool any_armed() const {
    return any_armed_.load(std::memory_order_relaxed);
  }

  /// Evaluate `site`.  Disarmed: returns false, counts nothing, costs
  /// one relaxed load.  Armed: bumps `evaluated`; when the trigger
  /// fires, bumps `fired`, then a kStall mode sleeps inline and returns
  /// false while a kError mode returns true — the caller routes true
  /// through its real host-failure path.
  bool should_fail(Site site) {
    if (!armed_[static_cast<std::size_t>(site)].load(
            std::memory_order_relaxed)) {
      return false;
    }
    return evaluate_armed(site);
  }

  SiteCounters counters(Site site) const;

 private:
  Registry();
  bool evaluate_armed(Site site);

  struct State;  // armed config + counters + RNG, behind one mutex
  State* states_;  // [kSiteCount], heap-allocated once, never freed
  std::atomic<bool> armed_[kSiteCount];
  std::atomic<bool> any_armed_{false};
};

/// Convenience: Registry::instance().should_fail(site).
inline bool should_fail(Site site) {
  return Registry::instance().should_fail(site);
}

}  // namespace vstream::failpoints

// Ablation (§4.1-1 take-away): replace ATS's LRU with perfect-LFU or
// GD-Size and measure steady-state hit rates on the same session workload.
//
// One edge server under sustained churn: caches far smaller than the
// working set, a long warm-up phase (not measured) so compulsory misses
// wash out, then a measured phase where every retained byte is a choice
// the eviction policy made.  AtsServer::serve reads cache residency from an
// immutable warm archive, so the bench owns the server's live cache: before
// each request it copies the object's current level into a catalog-sized
// archive, and afterwards applies the served request to the cache — a hit
// touches (and promotes) the object, a miss admits it.
#include "bench_common.h"

using namespace vstream;

namespace {

struct PolicyResult {
  double ram_hit = 0.0;
  double disk_hit = 0.0;
  double miss = 0.0;
  double hit_median_ms = 0.0;
  double p95_total_ms = 0.0;
};

PolicyResult drive(cdn::PolicyKind policy, std::size_t sessions) {
  cdn::AtsConfig config;
  config.policy = policy;
  config.ram_bytes = 1ull << 30;
  config.disk_bytes = 12ull << 30;
  const cdn::AtsServer server(config, cdn::BackendConfig{});
  cdn::TwoLevelCache cache(config.ram_bytes, config.disk_bytes, policy);
  cdn::ServerStats stats;

  sim::Rng rng(41);
  workload::CatalogConfig catalog_config;
  catalog_config.video_count = 2'500;
  const workload::VideoCatalog catalog(catalog_config, rng);
  workload::PopulationConfig pop_config;
  pop_config.prefix_count = 100;
  const workload::Population population(pop_config, rng);
  workload::SessionGenerator generator({}, catalog, population);
  // Mixed bitrates (clients differ): object sizes vary 20x, which is
  // exactly the regime where GD-Size's size-awareness matters.
  const auto ladder = client::default_bitrate_ladder();
  std::vector<std::uint32_t> chunk_counts;
  for (std::uint32_t v = 0; v < catalog.size(); ++v) {
    chunk_counts.push_back(catalog.video(v).chunk_count);
  }
  cdn::WarmArchive residency(
      chunk_counts, std::vector<std::uint32_t>(catalog.size(), 0), ladder);

  const std::size_t warmup = sessions / 2;
  std::uint64_t ram0 = 0, disk0 = 0, miss0 = 0, req0 = 0;
  std::vector<double> hit_latency, all_latency;

  for (std::size_t i = 0; i < sessions; ++i) {
    const workload::SessionSpec spec = generator.next(rng);
    if (i == warmup) {
      ram0 = stats.ram_hits;
      disk0 = stats.disk_hits;
      miss0 = stats.misses;
      req0 = stats.requests_served;
    }
    const std::uint32_t bitrate =
        ladder[spec.session_id % ladder.size()];
    const std::uint64_t bytes =
        cdn::chunk_bytes(bitrate, catalog.chunk_duration_s());
    cdn::SessionServerState session;
    for (std::uint32_t c = 0; c < spec.chunk_count; ++c) {
      const cdn::ChunkKey key{spec.video_id, c, bitrate};
      residency.set(residency.slot(key), cache.peek(key));
      const cdn::ServeResult r =
          server.serve(key, spec.start_time_ms, rng, residency,
                       /*server_index=*/0, session, stats);
      if (r.cache_hit()) {
        cache.lookup(key, bytes);
      } else {
        cache.admit(key, bytes);
      }
      if (i >= warmup) {
        all_latency.push_back(r.total_ms());
        if (r.cache_hit()) hit_latency.push_back(r.total_ms());
      }
    }
  }

  PolicyResult result;
  const double n = static_cast<double>(stats.requests_served - req0);
  result.ram_hit = static_cast<double>(stats.ram_hits - ram0) / n;
  result.disk_hit = static_cast<double>(stats.disk_hits - disk0) / n;
  result.miss = static_cast<double>(stats.misses - miss0) / n;
  result.hit_median_ms = analysis::summarize(hit_latency).median;
  result.p95_total_ms = analysis::summarize(all_latency).p95;
  return result;
}

}  // namespace

int main() {
  const std::size_t sessions = bench::bench_session_count(6'000);

  core::print_header(
      "Ablation: cache eviction policy (one server, steady-state phase)");
  core::Table out({"policy", "ram-hit", "disk-hit", "miss", "hit median ms",
                   "p95 total ms"});
  for (const cdn::PolicyKind policy :
       {cdn::PolicyKind::kLru, cdn::PolicyKind::kPerfectLfu,
        cdn::PolicyKind::kGdSize}) {
    const PolicyResult r = drive(policy, sessions);
    out.add_row({cdn::to_string(policy),
                 core::fmt(100.0 * r.ram_hit, 2) + "%",
                 core::fmt(100.0 * r.disk_hit, 2) + "%",
                 core::fmt(100.0 * r.miss, 2) + "%",
                 core::fmt(r.hit_median_ms, 2),
                 core::fmt(r.p95_total_ms, 2)});
  }
  out.print();
  core::print_paper_reference(
      "§4.1-1 take-away: GD-size or perfect-LFU should beat LRU's hit rate "
      "on popularity-heavy workloads (Breslau et al.)");
  return 0;
}

// CDN cache study: drive a single ATS-like edge server with a Zipf chunk
// workload and compare eviction policies and RAM sizes — the experiment
// behind the paper's §4.1-1 take-away ("the default LRU cache eviction
// policy in ATS could be changed to better suited policies for
// popular-heavy workloads such as GD-size or perfect-LFU").
//
// AtsServer::serve reads cache residency from an immutable warm archive, so
// the study owns the server's live cache: before each request it copies the
// object's current level into a catalog-sized archive, and afterwards
// applies the served request to the cache — a hit touches (and promotes)
// the object, a miss admits it.
//
// Usage: ./build/examples/cdn_cache_study [requests]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "cdn/ats_server.h"
#include "cdn/cache.h"
#include "cdn/warm_archive.h"
#include "core/report.h"
#include "sim/zipf.h"
#include "workload/catalog.h"

using namespace vstream;

namespace {

struct StudyResult {
  double ram_hit = 0.0;
  double disk_hit = 0.0;
  double miss = 0.0;
  double median_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
};

StudyResult drive(cdn::PolicyKind policy, std::uint64_t ram_bytes,
                  std::size_t requests) {
  cdn::AtsConfig config;
  config.policy = policy;
  config.ram_bytes = ram_bytes;
  config.disk_bytes = 24ull << 30;

  const cdn::AtsServer server(config, cdn::BackendConfig{});
  cdn::TwoLevelCache cache(config.ram_bytes, config.disk_bytes, policy);
  cdn::ServerStats stats;
  sim::Rng rng(7);

  workload::CatalogConfig catalog_config;
  catalog_config.video_count = 2'000;
  const workload::VideoCatalog catalog(catalog_config, rng);
  const std::uint32_t bitrate = 1'500;
  std::vector<std::uint32_t> chunk_counts;
  for (std::uint32_t v = 0; v < catalog.size(); ++v) {
    chunk_counts.push_back(catalog.video(v).chunk_count);
  }
  const std::uint32_t ladder[] = {bitrate};
  cdn::WarmArchive residency(
      chunk_counts, std::vector<std::uint32_t>(catalog.size(), 0), ladder);

  std::vector<double> latencies;
  latencies.reserve(requests);
  double now_ms = 0.0;
  for (std::size_t i = 0; i < requests; ++i) {
    now_ms += rng.exponential(12.0);  // ~80 requests/s
    const std::uint32_t video = catalog.sample_video(rng);
    const workload::VideoMeta& meta = catalog.video(video);
    const std::uint32_t chunk =
        static_cast<std::uint32_t>(rng.uniform_int(0, meta.chunk_count - 1));
    const cdn::ChunkKey key{video, chunk, bitrate};
    const std::uint64_t bytes =
        cdn::chunk_bytes(bitrate, catalog.chunk_duration_s());
    residency.set(residency.slot(key), cache.peek(key));
    // Every request is its own viewer here: no per-session history.
    cdn::SessionServerState session;
    const cdn::ServeResult r = server.serve(key, now_ms, rng, residency,
                                            /*server_index=*/0, session, stats);
    if (r.cache_hit()) {
      cache.lookup(key, bytes);
    } else {
      cache.admit(key, bytes);
    }
    latencies.push_back(r.total_ms());
  }

  StudyResult result;
  const double n = static_cast<double>(stats.requests_served);
  result.ram_hit = stats.ram_hits / n;
  result.disk_hit = stats.disk_hits / n;
  result.miss = stats.misses / n;
  const analysis::SummaryStats latency =
      analysis::summarize(std::move(latencies));
  result.median_latency_ms = latency.median;
  result.p95_latency_ms = latency.p95;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t requests =
      argc > 1 ? static_cast<std::size_t>(std::atol(argv[1])) : 150'000;

  core::print_header("Cache policy comparison (one edge server)");
  core::Table table({"policy", "ram GiB", "ram-hit", "disk-hit", "miss",
                     "median ms", "p95 ms"});
  for (const cdn::PolicyKind policy :
       {cdn::PolicyKind::kLru, cdn::PolicyKind::kPerfectLfu,
        cdn::PolicyKind::kGdSize}) {
    for (const std::uint64_t ram : {1ull << 30, 4ull << 30}) {
      const StudyResult r = drive(policy, ram, requests);
      table.add_row({cdn::to_string(policy),
                     core::fmt(static_cast<double>(ram) / (1ull << 30), 0),
                     core::fmt(100.0 * r.ram_hit, 1) + "%",
                     core::fmt(100.0 * r.disk_hit, 1) + "%",
                     core::fmt(100.0 * r.miss, 1) + "%",
                     core::fmt(r.median_latency_ms, 2),
                     core::fmt(r.p95_latency_ms, 2)});
    }
  }
  table.print();
  core::print_paper_reference(
      "§4.1-1: LRU could be replaced by GD-size or perfect-LFU for "
      "popularity-heavy workloads; hit median ~2 ms, miss median ~80 ms");
  return 0;
}

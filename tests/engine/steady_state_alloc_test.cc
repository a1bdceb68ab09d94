// The perf contract behind the arena/reserve work: once a session is past
// its warmup chunks and serving RAM-resident content, stepping it performs
// ZERO heap allocations — the event/transfer/telemetry machinery runs
// entirely out of reused buffers.
//
// Enforced with replacement counting operator new/delete (they forward to
// malloc/free, so ASan still sees every allocation).  The counters are
// atomic because other tests in this binary run shard worker threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <unordered_set>
#include <vector>

#include "client/abr.h"
#include "engine/ground_truth.h"
#include "engine/overrides.h"
#include "engine/run_context.h"
#include "engine/session_runtime.h"
#include "engine/warmup.h"
#include "telemetry/collector.h"
#include "workload/scenario.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace vstream {
namespace {

TEST(SteadyStateAllocTest, ChunkServingAllocatesNothingAfterWarmup) {
  const workload::Scenario scenario = workload::test_scenario();

  sim::Rng rng(scenario.seed);
  workload::VideoCatalog catalog(scenario.catalog, rng);
  workload::Population population(scenario.population, rng);
  workload::SessionGenerator generator(scenario.sessions, catalog, population);
  cdn::Fleet fleet(scenario.fleet, catalog.size());
  telemetry::Collector collector(scenario.tcp_sample_interval_ms);
  collector.reserve(/*expected_sessions=*/8, /*expected_chunks=*/4096,
                    catalog.chunk_duration_s() * 1000.0);
  engine::GroundTruth ground_truth;
  std::unordered_set<net::Prefix24> bad_prefixes;
  std::vector<net::RoundSample> round_scratch;
  std::vector<cdn::ServerStats> server_stats(
      static_cast<std::size_t>(fleet.pop_count()) * fleet.servers_per_pop());

  engine::RunContext ctx;
  ctx.scenario = &scenario;
  ctx.catalog = &catalog;
  ctx.fleet = &fleet;
  ctx.collector = &collector;
  ctx.ground_truth = &ground_truth;
  ctx.bad_prefixes = &bad_prefixes;
  ctx.round_scratch = &round_scratch;
  ctx.server_stats = &server_stats;

  constexpr std::uint32_t kChunks = 48;
  workload::SessionSpec spec = generator.next(rng);
  spec.chunk_count = kChunks;
  // Pin every stochastic knob that could divert the probe from the warm
  // pass's chunk keys or into a recovery/anomaly path.
  engine::SessionOverrides overrides;
  overrides.disable_ds_anomalies = true;
  overrides.abr = client::AbrKind::kFixed;
  overrides.fixed_bitrate_kbps = client::default_bitrate_ladder()[1];
  overrides.per_chunk_loss.assign(kChunks, 0.0);
  overrides.bottleneck_kbps = 20'000.0;
  overrides.gpu = true;
  overrides.cpu_load = 0.1;

  // Warm content: every chunk the session will request (same video, fixed
  // rung) is RAM-resident on the video's server, so the probe session below
  // is a pure hit path.  The archive's copy of the video is as long as the
  // spec asks for.
  std::vector<std::uint32_t> chunk_counts;
  std::vector<std::uint32_t> owners;
  for (std::uint32_t video = 0; video < catalog.size(); ++video) {
    chunk_counts.push_back(catalog.video(video).chunk_count);
    owners.push_back(fleet.server_index_for_video(video));
  }
  chunk_counts[spec.video_id] = kChunks;
  engine::WarmArchive archive(chunk_counts, owners,
                              client::default_bitrate_ladder());
  ctx.warm_archive = &archive;
  for (std::uint32_t c = 0; c < kChunks; ++c) {
    archive.set(archive.slot(cdn::ChunkKey{spec.video_id, c,
                                           *overrides.fixed_bitrate_kbps}),
                cdn::CacheLevel::kRam);
  }

  // Warm pass: one full session sizes the shard's shared buffers (round
  // scratch, collector streams).
  {
    engine::SessionRuntime warm(ctx, spec, rng.fork(), &overrides);
    sim::Ms now = 0.0;
    while (warm.has_more()) now += warm.step(now);
    warm.finish();
  }

  // Probe pass: identical keys, all RAM hits.
  workload::SessionSpec probe_spec = spec;
  probe_spec.session_id += 1000;
  engine::SessionRuntime probe(ctx, probe_spec, rng.fork(), &overrides);
  sim::Ms now = 1e6;
  // Its own warmup: manifest + connection ramp + per-session collector
  // state (tcp sample clock) all happen in the first few chunks.
  for (int i = 0; i < 4 && probe.has_more(); ++i) now += probe.step(now);
  ASSERT_TRUE(probe.has_more());

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  int steps = 0;
  while (probe.has_more()) {
    now += probe.step(now);
    ++steps;
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_GE(steps, 40) << "probe session ended early (stall/abandon?)";
  EXPECT_EQ(after - before, 0u)
      << "heap allocations during " << steps << " steady-state chunk steps";
  probe.finish();
}

}  // namespace
}  // namespace vstream

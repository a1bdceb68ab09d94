// google-benchmark microbenchmarks of the simulator's hot paths: the event
// loop, the serve path, the warm-archive build, tcp_info sampling, the
// offline join, CSV export and its double formatter, the spill codec (one
// session group encoded and decoded, CRC32C), cache operations per
// eviction policy, TCP chunk transfers, a TCP round's random draws (normal
// and log-normal variates, RTT samples, random-loss counts), Zipf sampling
// and the statistical kernels.
//
// The custom main() additionally times one end-to-end paper workload and
// writes every measured rate to BENCH_hotpaths.json (bench_json.h) so the
// tier-1 perf smoke and cross-commit tooling get machine-readable numbers.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/detectors.h"
#include "analysis/stats.h"
#include "bench_common.h"
#include "bench_json.h"
#include "cdn/ats_server.h"
#include "cdn/cache.h"
#include "cdn/fleet.h"
#include "cdn/warm_archive.h"
#include "engine/engine.h"
#include "engine/warmup.h"
#include "failpoints/failpoint.h"
#include "net/packet_sim.h"
#include "net/tcp_model.h"
#include "sim/event_queue.h"
#include "sim/zipf.h"
#include "telemetry/collector.h"
#include "telemetry/crc32c.h"
#include "telemetry/export.h"
#include "telemetry/fast_format.h"
#include "telemetry/join.h"
#include "telemetry/record_group.h"
#include "telemetry/spill_format.h"
#include "workload/catalog.h"
#include "workload/scenario.h"

using namespace vstream;

namespace {

void BM_CacheInsertLookup(benchmark::State& state) {
  const auto policy = static_cast<cdn::PolicyKind>(state.range(0));
  cdn::CacheStore store(64ull << 20, cdn::make_policy(policy));
  std::uint64_t key = 0;
  for (auto _ : state) {
    const cdn::ChunkKey k{static_cast<std::uint32_t>(key % 4'096),
                          static_cast<std::uint32_t>(key % 64), 1'500};
    store.insert(k, 1 << 20);
    benchmark::DoNotOptimize(store.contains(k));
    ++key;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheInsertLookup)
    ->Arg(static_cast<int>(cdn::PolicyKind::kLru))
    ->Arg(static_cast<int>(cdn::PolicyKind::kPerfectLfu))
    ->Arg(static_cast<int>(cdn::PolicyKind::kGdSize));

void BM_TwoLevelLookup(benchmark::State& state) {
  cdn::TwoLevelCache cache(32ull << 20, 512ull << 20, cdn::PolicyKind::kLru);
  for (std::uint32_t v = 0; v < 512; ++v) {
    cache.admit(cdn::ChunkKey{v, 0, 1'500}, 1 << 20);
  }
  std::uint32_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.lookup(cdn::ChunkKey{v++ % 1'024, 0, 1'500}, 1 << 20));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TwoLevelLookup);

void BM_TcpChunkTransfer(benchmark::State& state) {
  net::PathConfig path;
  path.base_rtt_ms = 30.0;
  path.bottleneck_kbps = 12'000.0;
  path.random_loss = 1e-4;
  net::TcpConnection conn(net::TcpConfig{}, path, sim::Rng(1));
  const std::uint64_t bytes = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(conn.transfer(bytes));
    conn.idle(6'000.0);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_TcpChunkTransfer)->Arg(225'000)->Arg(1'875'000)->Arg(4'500'000);

void BM_ZipfSample(benchmark::State& state) {
  const sim::Zipf zipf(static_cast<std::size_t>(state.range(0)), 0.8);
  sim::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(1'000)->Arg(100'000);

void BM_StandardNormal(benchmark::State& state) {
  sim::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.standard_normal());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StandardNormal);

void BM_LognormalMedian(benchmark::State& state) {
  sim::Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.lognormal_median(8.0, 1.1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LognormalMedian);

/// One TCP round's RTT on an enterprise path: spike countdown, jitter and
/// the self-loading queue.
void BM_PathSampleRtt(benchmark::State& state) {
  net::PathModel path(
      net::make_path_config(net::AccessType::kEnterprise, 800.0, 20'000.0));
  sim::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(path.sample_rtt(40, 1'460, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PathSampleRtt);

/// One TCP round's random-loss count for a window of range(0) segments at
/// an international path's loss rate.
void BM_RandomLosses(benchmark::State& state) {
  net::PathConfig config;
  config.random_loss = 2e-4;
  net::PathModel path(config);
  sim::Rng rng(6);
  const auto window = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(path.random_losses(window, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomLosses)->Arg(40)->Arg(400);

void BM_PacketLevelTransfer(benchmark::State& state) {
  net::PacketSimConfig config;
  config.bottleneck_kbps = 12'000.0;
  config.one_way_prop_ms = 15.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::simulate_packet_transfer(
        static_cast<std::uint64_t>(state.range(0)), config));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PacketLevelTransfer)->Arg(225'000)->Arg(1'875'000);

void BM_DsOutlierDetector(benchmark::State& state) {
  // One joined session of N chunks through the Eq. 4 screen.
  const auto n = static_cast<std::size_t>(state.range(0));
  telemetry::Dataset data;
  telemetry::PlayerSessionRecord ps;
  ps.session_id = 1;
  data.player_sessions.push_back(ps);
  telemetry::CdnSessionRecord cs;
  cs.session_id = 1;
  data.cdn_sessions.push_back(cs);
  sim::Rng rng(4);
  for (std::size_t c = 0; c < n; ++c) {
    telemetry::PlayerChunkRecord pc;
    pc.session_id = 1;
    pc.chunk_id = static_cast<std::uint32_t>(c);
    pc.dfb_ms = rng.lognormal_median(80.0, 0.4);
    pc.dlb_ms = rng.lognormal_median(2'500.0, 0.3);
    data.player_chunks.push_back(pc);
    telemetry::CdnChunkRecord cc;
    cc.session_id = 1;
    cc.chunk_id = static_cast<std::uint32_t>(c);
    cc.dread_ms = 1.5;
    cc.cache_level = cdn::CacheLevel::kRam;
    cc.chunk_bytes = 1'125'000;
    data.cdn_chunks.push_back(cc);
    telemetry::TcpSnapshotRecord snap;
    snap.session_id = 1;
    snap.chunk_id = static_cast<std::uint32_t>(c);
    snap.at_ms = 1'000.0 * static_cast<double>(c);
    snap.info.srtt_ms = 50.0;
    snap.info.cwnd_segments = 40;
    snap.info.mss_bytes = 1'460;
    snap.info.segments_out = 800 * (c + 1);
    data.tcp_snapshots.push_back(snap);
  }
  const auto joined = telemetry::JoinedDataset::build(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::detect_ds_outliers(joined.sessions()[0]));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DsOutlierDetector)->Arg(16)->Arg(128);

void BM_SummarizeStats(benchmark::State& state) {
  sim::Rng rng(3);
  std::vector<double> values(static_cast<std::size_t>(state.range(0)));
  for (double& v : values) v = rng.lognormal_median(50.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::summarize(values));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SummarizeStats)->Arg(1'000)->Arg(100'000);

void BM_EventLoopScheduleRun(benchmark::State& state) {
  sim::EventQueue queue;
  std::uint64_t fired = 0;
  constexpr int kEvents = 64;
  for (auto _ : state) {
    queue.reset();
    for (int i = 0; i < kEvents; ++i) {
      queue.schedule_at(static_cast<sim::Ms>(i % 16), [&fired] { ++fired; });
    }
    queue.run_all();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_EventLoopScheduleRun);

void BM_ServeRamHit(benchmark::State& state) {
  // The sharded engine's per-chunk serve: warm-archive RAM hit with a
  // session overlay, the path nearly every steady-state chunk takes.
  cdn::AtsServer server(cdn::AtsConfig{}, cdn::BackendConfig{});
  constexpr std::uint32_t kVideos = 256;
  constexpr std::uint32_t kLadder[] = {1'500};
  const std::vector<std::uint32_t> one_chunk(kVideos, 1);
  cdn::WarmArchive warm(one_chunk, std::vector<std::uint32_t>(kVideos, 0),
                        kLadder);
  for (std::uint32_t v = 0; v < kVideos; ++v) {
    warm.set(warm.slot(cdn::ChunkKey{v, 0, 1'500}), cdn::CacheLevel::kRam);
  }
  cdn::SessionServerState session;
  cdn::ServerStats stats;
  sim::Rng rng(9);
  std::uint32_t v = 0;
  sim::Ms now = 0.0;
  for (auto _ : state) {
    const cdn::ChunkKey key{v++ % kVideos, 0, 1'500};
    now += 4.0;
    benchmark::DoNotOptimize(
        server.serve(key, now, rng, warm, /*server_index=*/0, session, stats));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeRamHit);

void BM_WarmArchiveBuild(benchmark::State& state) {
  // The steady-state cache residency every run builds before simulating:
  // the paper_scenario catalog on its fleet, default warm-up options.
  // Items are catalog slots (video x chunk x rung).
  const workload::Scenario scenario = workload::paper_scenario();
  sim::Rng rng(scenario.seed);
  const workload::VideoCatalog catalog(scenario.catalog, rng);
  const cdn::Fleet fleet(scenario.fleet, catalog.size());
  const engine::RunOptions defaults;
  std::size_t slots = 0;
  for (auto _ : state) {
    const engine::WarmArchive archive = engine::build_warm_archive(
        fleet, catalog, defaults.disk_fill, defaults.universal_head);
    slots = archive.slot_count();
    benchmark::DoNotOptimize(archive.count(cdn::CacheLevel::kRam));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(slots));
}
BENCHMARK(BM_WarmArchiveBuild)->Unit(benchmark::kMillisecond);

void BM_CollectorSampleTransfer(benchmark::State& state) {
  telemetry::Collector collector(500.0);
  // Zero-length chunks: one snapshot slot per "chunk", 1 << 16 in all.
  collector.reserve(4, 1 << 16, 0.0);
  std::vector<net::RoundSample> rounds(24);
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    rounds[i].at_ms = 40.0 * static_cast<double>(i + 1);
    rounds[i].info.srtt_ms = 42.0;
    rounds[i].info.cwnd_segments = 64;
  }
  sim::Ms at = 0.0;
  std::uint32_t chunk = 0;
  for (auto _ : state) {
    collector.sample_transfer(1, chunk++, at, rounds);
    at += 1'000.0;
    if (collector.data().tcp_snapshots.size() > (1u << 16) - 8) {
      state.PauseTiming();
      (void)collector.take();
      collector.reserve(4, 1 << 16, 0.0);
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CollectorSampleTransfer);

/// Synthetic N-session dataset shared by the join and export benches.
telemetry::Dataset make_bench_dataset(std::size_t sessions,
                                      std::size_t chunks_per_session) {
  telemetry::Dataset data;
  sim::Rng rng(5);
  for (std::size_t s = 1; s <= sessions; ++s) {
    telemetry::PlayerSessionRecord ps;
    ps.session_id = s;
    ps.client_ip = static_cast<std::uint32_t>(0x0A000000 + s);
    ps.user_agent = "Mozilla/5.0 (bench)";
    ps.video_duration_s = 600.0;
    data.player_sessions.push_back(ps);
    telemetry::CdnSessionRecord cs;
    cs.session_id = s;
    cs.observed_ip = ps.client_ip;
    cs.observed_user_agent = ps.user_agent;
    cs.org = "bench-isp";
    cs.city = "bench-city";
    cs.country = "BC";
    data.cdn_sessions.push_back(cs);
    for (std::size_t c = 0; c < chunks_per_session; ++c) {
      telemetry::PlayerChunkRecord pc;
      pc.session_id = s;
      pc.chunk_id = static_cast<std::uint32_t>(c);
      pc.request_sent_ms = 4'000.0 * static_cast<double>(c);
      pc.dfb_ms = rng.lognormal_median(80.0, 0.4);
      pc.dlb_ms = rng.lognormal_median(2'500.0, 0.3);
      pc.bitrate_kbps = 3'000;
      pc.avg_fps = 59.94;
      data.player_chunks.push_back(pc);
      telemetry::CdnChunkRecord cc;
      cc.session_id = s;
      cc.chunk_id = pc.chunk_id;
      cc.dread_ms = 1.5;
      cc.cache_level = cdn::CacheLevel::kRam;
      cc.chunk_bytes = 1'125'000;
      data.cdn_chunks.push_back(cc);
      telemetry::TcpSnapshotRecord snap;
      snap.session_id = s;
      snap.chunk_id = pc.chunk_id;
      snap.at_ms = pc.request_sent_ms + pc.dfb_ms;
      snap.info.srtt_ms = 50.0;
      snap.info.cwnd_segments = 40;
      snap.info.mss_bytes = 1'460;
      snap.info.segments_out = 800 * (c + 1);
      data.tcp_snapshots.push_back(snap);
    }
  }
  return data;
}

void BM_FailpointDisarmedEvaluate(benchmark::State& state) {
  // The production cost of the failpoint instrumentation: one relaxed
  // atomic load per disarmed site evaluation (failpoints/failpoint.h).
  failpoints::Registry::instance().disarm_all();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        failpoints::should_fail(failpoints::Site::kSpillWrite));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FailpointDisarmedEvaluate);

void BM_JoinDataset(benchmark::State& state) {
  const auto sessions = static_cast<std::size_t>(state.range(0));
  const telemetry::Dataset data = make_bench_dataset(sessions, 32);
  for (auto _ : state) {
    const auto joined = telemetry::JoinedDataset::build(data);
    benchmark::DoNotOptimize(joined.sessions().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sessions));
}
BENCHMARK(BM_JoinDataset)->Arg(64);

void BM_ExportCsv(benchmark::State& state) {
  const auto sessions = static_cast<std::size_t>(state.range(0));
  const telemetry::Dataset data = make_bench_dataset(sessions, 32);
  const std::size_t rows = data.player_sessions.size() +
                           data.cdn_sessions.size() +
                           data.player_chunks.size() + data.cdn_chunks.size() +
                           data.tcp_snapshots.size();
  std::ostringstream out;
  for (auto _ : state) {
    out.str(std::string());
    telemetry::write_csv(out, data.player_sessions);
    telemetry::write_csv(out, data.cdn_sessions);
    telemetry::write_csv(out, data.player_chunks);
    telemetry::write_csv(out, data.cdn_chunks);
    telemetry::write_csv(out, data.tcp_snapshots);
    benchmark::DoNotOptimize(out.tellp());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_ExportCsv)->Arg(64);

/// append_double_g6 over a mix shaped like the CSV's doubles: srtt and
/// rttvar (ms), snapshot timestamps (ms since session start) and delays,
/// one item per formatted field (ns per field = 1e9 / items/s).
void BM_AppendDoubleG6(benchmark::State& state) {
  sim::Rng rng(6);
  std::vector<double> values(4096);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double medians[4] = {60.0, 8.0, 200'000.0, 5.0};
    const double sigmas[4] = {0.8, 1.2, 1.5, 2.0};
    values[i] = rng.lognormal_median(medians[i % 4], sigmas[i % 4]);
  }
  std::ostringstream out;
  for (auto _ : state) {
    out.str(std::string());
    {
      telemetry::WriteBuffer buf(out);
      for (const double v : values) {
        buf.append_double_g6(v);
        buf.append(',');
      }
    }
    benchmark::DoNotOptimize(out.tellp());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_AppendDoubleG6);

/// CRC32C over a buffer of the argument's size, on the dispatching path
/// (the CPU's instruction where it has one); one item per byte.
void BM_Crc32c(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<unsigned char> data(n);
  sim::Rng rng(7);
  for (unsigned char& b : data) {
    b = static_cast<unsigned char>(rng.uniform01() * 256.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(telemetry::crc32c(data.data(), data.size()));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(8192);

/// The median session group, by record count, of a 50-session paper run:
/// what one spill block holds.
const telemetry::SessionRecordGroup& bench_session_group() {
  static const telemetry::SessionRecordGroup group = [] {
    workload::Scenario scenario = workload::paper_scenario();
    scenario.session_count = 50;
    const engine::RunResult run = engine::run_simulation(scenario);
    telemetry::DatasetGroupStream stream(run.dataset);
    std::vector<telemetry::SessionRecordGroup> groups;
    while (auto g = stream.next()) groups.push_back(std::move(*g));
    const auto mid = groups.begin() + static_cast<std::ptrdiff_t>(groups.size() / 2);
    std::nth_element(groups.begin(), mid, groups.end(),
                     [](const auto& a, const auto& b) {
                       return a.record_count() < b.record_count();
                     });
    return std::move(*mid);
  }();
  return group;
}

/// SpillWriter::write of one session group: columnar encode, both CRCs
/// and framing, staged for a write to /dev/null; one item per record.
void BM_SpillEncodeSession(benchmark::State& state) {
  const telemetry::SessionRecordGroup& group = bench_session_group();
  telemetry::SpillWriter writer("/dev/null");
  for (auto _ : state) writer.write(group);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(group.record_count()));
}
BENCHMARK(BM_SpillEncodeSession);

/// SpillReader::read_at of that group's block from a mapped file: payload
/// CRC and columnar decode into a fresh group; one item per record.
void BM_SpillDecodeSession(benchmark::State& state) {
  const telemetry::SessionRecordGroup& group = bench_session_group();
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("vstream_bench_spill_decode_" + std::to_string(::getpid()) + ".vspill");
  {
    telemetry::SpillWriter writer(path);
    writer.write(group);
    writer.close();
  }
  {
    telemetry::SpillReader reader(path);
    const telemetry::SpillBlockRef ref = reader.index().front();
    for (auto _ : state) {
      benchmark::DoNotOptimize(reader.read_at(ref));
    }
  }
  std::filesystem::remove(path);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(group.record_count()));
}
BENCHMARK(BM_SpillDecodeSession);

/// Display reporter that captures every run for the JSON emitter and
/// forwards everything to the reporter --benchmark_format selects.
class CapturingReporter : public benchmark::BenchmarkReporter {
 public:
  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }
  void ReportRuns(const std::vector<Run>& runs) override {
    display_->ReportRuns(runs);
    for (const Run& run : runs) captured_.push_back(run);
  }
  void Finalize() override { display_->Finalize(); }

  /// Per-benchmark rate metrics: items/s where SetItemsProcessed was
  /// called, plain iterations/s otherwise.
  std::vector<bench::JsonMetric> metrics() const {
    std::vector<bench::JsonMetric> out;
    for (const Run& run : captured_) {
      if (run.iterations == 0 || run.real_accumulated_time <= 0.0) continue;
      bench::JsonMetric metric;
      metric.name = sanitized(run.benchmark_name());
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        metric.value = items->second;
        metric.unit = "items/s";
      } else {
        metric.value = static_cast<double>(run.iterations) /
                       run.real_accumulated_time;
        metric.unit = "iterations/s";
      }
      out.push_back(std::move(metric));
    }
    return out;
  }

 private:
  static std::string sanitized(std::string name) {
    for (char& c : name) {
      if (c == '/' || c == ':' || c == '.') c = '_';
    }
    return name;
  }

  /// Owned by the library.
  benchmark::BenchmarkReporter* display_ =
      benchmark::CreateDefaultDisplayReporter();
  std::vector<Run> captured_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  // End-to-end throughput: the paper workload through the sharded engine
  // (single shard unless VSTREAM_SHARDS overrides), wall-clock timed.
  // VSTREAM_BENCH_SESSIONS overrides the session count as usual.
  const std::size_t sessions = bench::bench_session_count(300);
  const auto start = std::chrono::steady_clock::now();
  {
    const bench::BenchRun run = bench::run_paper_workload(sessions);
    benchmark::DoNotOptimize(run.result.dataset.player_chunks.size());
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // Armed-but-never-firing rerun: every site armed with a fire point the
  // run cannot reach, so each evaluation takes the full armed path (site
  // lock + trigger check) instead of the disarmed relaxed load.  The
  // relative slowdown is therefore an *upper bound* on the disarmed
  // instrumentation overhead — negative values are measurement noise.
  {
    failpoints::Registry::instance().arm(
        "spill.write=error@once:1099511627776,"
        "spill.flush=error@once:1099511627776,"
        "checkpoint.write=error@once:1099511627776,"
        "checkpoint.rename=error@once:1099511627776,"
        "export.open=error@once:1099511627776,"
        "export.write=error@once:1099511627776,"
        "runtime.task_stall=error@once:1099511627776");
  }
  const auto armed_start = std::chrono::steady_clock::now();
  {
    const bench::BenchRun run = bench::run_paper_workload(sessions);
    benchmark::DoNotOptimize(run.result.dataset.player_chunks.size());
  }
  const double armed_elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    armed_start)
          .count();
  failpoints::Registry::instance().disarm_all();
  const double overhead_pct = (armed_elapsed_s / elapsed_s - 1.0) * 100.0;

  std::vector<bench::JsonMetric> metrics = reporter.metrics();
  metrics.push_back({"end_to_end_sessions_per_s",
                     static_cast<double>(sessions) / elapsed_s, "sessions/s"});
  metrics.push_back({"failpoint_overhead_pct", overhead_pct, "pct"});
  bench::emit_json("BENCH_hotpaths.json", "hotpaths", metrics);
  std::printf("failpoint_overhead_pct: %.3f (armed-never-fire vs disarmed)\n",
              overhead_pct);
  std::printf("end_to_end: %zu sessions in %.3f s (%.1f sessions/s)\n",
              sessions, elapsed_s,
              static_cast<double>(sessions) / elapsed_s);
  std::printf("wrote BENCH_hotpaths.json (%zu metrics)\n",
              metrics.size());

  benchmark::Shutdown();
  return 0;
}

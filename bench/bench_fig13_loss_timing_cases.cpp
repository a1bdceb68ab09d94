// Figure 13: the loss-timing case study.  Two 10-chunk sessions with
// matched bitrate/cache/path conditions:
//   case #1 — a small loss burst on the FIRST chunk (0.75% session rate),
//   case #2 — a much larger loss burst after the buffer has built up
//             (22% session rate).
// The paper's point: case #1 re-buffers despite 30x less loss, because the
// playback buffer was empty when the loss hit.
#include "bench_common.h"
#include "engine/replay.h"

using namespace vstream;

namespace {

struct CaseResult {
  std::vector<double> per_chunk_loss_pct;
  double session_retx_pct = 0.0;
  double rebuffer_ms = 0.0;
  std::uint32_t rebuffer_events = 0;
};

CaseResult run_case(bool loss_on_first_chunk) {
  workload::Scenario scenario = workload::test_scenario();
  scenario.session_count = 1;
  scenario.seed = 1313;
  const engine::ReplayContext world(scenario);

  engine::SessionOverrides overrides;
  overrides.chunk_count = 10;
  overrides.abr = client::AbrKind::kFixed;
  overrides.fixed_bitrate_kbps = 2'500;
  overrides.disable_ds_anomalies = true;
  // A pipe with headroom, so the buffer builds between loss events.
  overrides.bottleneck_kbps = 5'000.0;
  overrides.per_chunk_loss.assign(10, std::optional<double>(0.0));
  if (loss_on_first_chunk) {
    overrides.per_chunk_loss[0] = 0.08;  // early, small in absolute terms
    overrides.per_chunk_loss[1] = 0.04;
  } else {
    overrides.per_chunk_loss[5] = 0.10;  // late, heavier: buffer absorbs it
    overrides.per_chunk_loss[6] = 0.10;
  }
  const auto replayed = world.replay_session(
      world.admitted().front().spec.session_id, {}, &overrides);

  const auto joined = telemetry::JoinedDataset::build(replayed->dataset);
  const telemetry::JoinedSession& s = joined.sessions().front();

  CaseResult result;
  for (const telemetry::JoinedChunk& c : s.chunks) {
    result.per_chunk_loss_pct.push_back(100.0 * c.retx_rate());
    result.rebuffer_ms += c.player->rebuffer_ms;
    result.rebuffer_events += c.player->rebuffer_count;
  }
  result.session_retx_pct = 100.0 * s.retx_rate();
  return result;
}

}  // namespace

int main() {
  const CaseResult early = run_case(true);
  const CaseResult late = run_case(false);

  core::print_header("Figure 13: per-chunk loss rate (%) for the two cases");
  for (std::size_t c = 0; c < early.per_chunk_loss_pct.size(); ++c) {
    std::printf("series fig13: chunk=%zu case1_early=%.2f case2_late=%.2f\n",
                c, early.per_chunk_loss_pct[c], late.per_chunk_loss_pct[c]);
  }
  core::print_metric("case1_session_retx_pct", early.session_retx_pct);
  core::print_metric("case1_rebuffer_ms", early.rebuffer_ms);
  core::print_metric("case1_rebuffer_events",
                     static_cast<double>(early.rebuffer_events));
  core::print_metric("case2_session_retx_pct", late.session_retx_pct);
  core::print_metric("case2_rebuffer_ms", late.rebuffer_ms);
  core::print_metric("case2_rebuffer_events",
                     static_cast<double>(late.rebuffer_events));
  core::print_paper_reference(
      "Fig 13: case #1 (0.75% loss, on chunk 0) re-buffers; case #2 (22% "
      "loss after the buffer built to ~30 s) does not — loss timing matters "
      "more than loss rate");
  return 0;
}

// Per-session knobs for scripted experiments (case studies, ablations).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "client/abr.h"
#include "client/download_stack.h"

namespace vstream::engine {

struct SessionOverrides {
  std::optional<client::DownloadStackProfile> ds_profile;
  /// Per-chunk random-loss override (index = chunk id; missing entries keep
  /// the path default).  Drives the Fig. 13 loss-timing case study.
  std::vector<std::optional<double>> per_chunk_loss;
  std::optional<client::AbrKind> abr;
  std::optional<std::uint32_t> fixed_bitrate_kbps;
  /// Exact number of chunks to stream (at least 1, regardless of the
  /// video's length).
  std::optional<std::uint32_t> chunk_count;
  std::optional<bool> gpu;
  std::optional<double> cpu_load;
  std::optional<double> bottleneck_kbps;
  std::optional<bool> disable_ds_anomalies;
};

}  // namespace vstream::engine

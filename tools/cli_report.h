// Report sections that vstream-sim and vstream-analyze both print.
#pragma once

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <string>

#include "analysis/attribution.h"
#include "core/report.h"
#include "sim/host_error.h"
#include "telemetry/spill_format.h"

namespace vstream::tools {

/// The "spill recovery (corruption detected)" section: how much of a
/// damaged spill read survived.
inline void print_spill_recovery(const telemetry::SpillReadStats& stats) {
  core::print_header("spill recovery (corruption detected)");
  core::print_metric("blocks_ok", static_cast<double>(stats.blocks_ok));
  core::print_metric("blocks_skipped",
                     static_cast<double>(stats.blocks_skipped));
  core::print_metric("bytes_salvaged",
                     static_cast<double>(stats.bytes_salvaged));
  core::print_metric("bytes_skipped",
                     static_cast<double>(stats.bytes_skipped));
  core::print_metric("torn_tail_bytes",
                     static_cast<double>(stats.torn_tail_bytes));
}

/// The worst-session attribution section (sessions attributed, mean blame
/// per subsystem and the residual), then the full report written as JSON
/// to `json_path` (sim::HostIoError when it cannot be opened).  Returns
/// how many factual replays diverged from the measured run, for the
/// caller's own warning.
inline std::size_t print_attribution(const analysis::AttributionReport& report,
                                     const std::string& json_path) {
  core::print_header("worst-session attribution (counterfactual replay)");
  core::print_metric("sessions_attributed",
                     static_cast<double>(report.sessions.size()));
  core::Table blame({"subsystem", "mean blame"});
  for (std::size_t i = 0; i < cdn::kIdealizedSubsystemCount; ++i) {
    blame.add_row({cdn::idealization_name(cdn::kIdealizedSubsystems[i]),
                   core::fmt(report.mean_blame(i), 3)});
  }
  blame.add_row({"(residual)", core::fmt(report.mean_residual(), 3)});
  blame.print();

  std::ofstream json_out(json_path);
  if (!json_out) {
    throw sim::HostIoError("attribution: cannot open " + json_path +
                           " for writing");
  }
  analysis::write_attribution_json(json_out, report);
  std::printf("\nwrote attribution report to %s\n", json_path.c_str());

  std::size_t mismatches = 0;
  for (const analysis::SessionAttribution& s : report.sessions) {
    if (!s.baseline_matches) ++mismatches;
  }
  return mismatches;
}

}  // namespace vstream::tools

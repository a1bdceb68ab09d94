#include "engine/checkpoint.h"

#include <algorithm>
#include <bit>
#include <fstream>
#include <stdexcept>
#include <string>
#include <system_error>

#include "failpoints/failpoint.h"
#include "sim/host_error.h"
#include "telemetry/crc32c.h"
#include "telemetry/le_bytes.h"

namespace vstream::engine {

namespace {

constexpr std::uint32_t kCkptMagic = 0x504B4356;  // "VCKP"
constexpr std::uint32_t kCkptVersion = 1;

using telemetry::load_u32;
using telemetry::load_u64;
using telemetry::put_u32;
using telemetry::put_u64;

/// Bounds-checked payload cursor; overruns throw (caught by
/// read_checkpoint and mapped to "no checkpoint").
struct Cursor {
  const char* p;
  const char* end;

  void need(std::size_t n) const {
    if (static_cast<std::size_t>(end - p) < n) {
      throw std::runtime_error("checkpoint: truncated payload");
    }
  }
  std::uint32_t get_u32() {
    need(4);
    const std::uint32_t v = load_u32(p);
    p += 4;
    return v;
  }
  std::uint64_t get_u64() {
    need(8);
    const std::uint64_t v = load_u64(p);
    p += 8;
    return v;
  }
};

// FNV-1a 64-bit — the fingerprint only needs to distinguish *different*
// run configurations deterministically, not resist adversaries.
struct Fnv {
  std::uint64_t h = 0xCBF29CE484222325ull;

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 0x100000001B3ull;
    }
  }
  void mix_f64(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
};

void put_ground_truth(std::string& out, const GroundTruth& gt) {
  // Maps serialize in ascending key order so the byte stream (and its
  // CRC) is deterministic regardless of unordered_map iteration order.
  std::vector<std::uint64_t> keys;
  keys.reserve(gt.ds_anomalies.size());
  for (const auto& [id, chunks] : gt.ds_anomalies) keys.push_back(id);
  std::sort(keys.begin(), keys.end());
  put_u64(out, keys.size());
  for (const std::uint64_t id : keys) {
    const auto& chunks = gt.ds_anomalies.at(id);
    put_u64(out, id);
    put_u32(out, static_cast<std::uint32_t>(chunks.size()));
    for (const std::uint32_t chunk : chunks) put_u32(out, chunk);
  }

  keys.clear();
  for (const auto& [id, flag] : gt.proxied) keys.push_back(id);
  std::sort(keys.begin(), keys.end());
  put_u64(out, keys.size());
  for (const std::uint64_t id : keys) {
    put_u64(out, id);
    put_u32(out, gt.proxied.at(id) ? 1 : 0);
  }

  put_u64(out, gt.total_chunks);
  put_u64(out, gt.total_ds_anomalies);
  put_u64(out, gt.stall_abandonments);
  put_u64(out, gt.request_timeouts);
  put_u64(out, gt.chunk_retries);
  put_u64(out, gt.failover_events);
  put_u64(out, gt.failed_sessions);
}

GroundTruth get_ground_truth(Cursor& c) {
  GroundTruth gt;
  const std::uint64_t n_anomalies = c.get_u64();
  gt.ds_anomalies.reserve(n_anomalies);
  for (std::uint64_t i = 0; i < n_anomalies; ++i) {
    const std::uint64_t id = c.get_u64();
    const std::uint32_t count = c.get_u32();
    std::vector<std::uint32_t>& chunks = gt.ds_anomalies[id];
    chunks.reserve(count);
    for (std::uint32_t j = 0; j < count; ++j) chunks.push_back(c.get_u32());
  }
  const std::uint64_t n_proxied = c.get_u64();
  gt.proxied.reserve(n_proxied);
  for (std::uint64_t i = 0; i < n_proxied; ++i) {
    const std::uint64_t id = c.get_u64();
    gt.proxied[id] = c.get_u32() != 0;
  }
  gt.total_chunks = c.get_u64();
  gt.total_ds_anomalies = c.get_u64();
  gt.stall_abandonments = c.get_u64();
  gt.request_timeouts = c.get_u64();
  gt.chunk_retries = c.get_u64();
  gt.failover_events = c.get_u64();
  gt.failed_sessions = c.get_u64();
  return gt;
}

void put_server_stats(std::string& out,
                      const std::vector<cdn::ServerStats>& stats) {
  put_u64(out, stats.size());
  for (const cdn::ServerStats& s : stats) {
    put_u64(out, s.requests_served);
    put_u64(out, s.ram_hits);
    put_u64(out, s.disk_hits);
    put_u64(out, s.misses);
    put_u64(out, s.prefetched_chunks);
    put_u64(out, s.collapsed_misses);
    put_u64(out, s.backend_fetches);
    put_u64(out, s.stale_serves);
    put_u64(out, s.backend_errors);
    put_u64(out, s.shed_requests);
    put_u64(out, s.hedged_fetches);
    put_u64(out, s.hedge_wins);
    put_u64(out, s.breaker_open_transitions);
    put_u64(out, s.retry_budget_exhausted);
    put_u64(out, s.swr_serves);
  }
}

std::vector<cdn::ServerStats> get_server_stats(Cursor& c) {
  const std::uint64_t n = c.get_u64();
  std::vector<cdn::ServerStats> stats;
  stats.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    cdn::ServerStats s;
    s.requests_served = c.get_u64();
    s.ram_hits = c.get_u64();
    s.disk_hits = c.get_u64();
    s.misses = c.get_u64();
    s.prefetched_chunks = c.get_u64();
    s.collapsed_misses = c.get_u64();
    s.backend_fetches = c.get_u64();
    s.stale_serves = c.get_u64();
    s.backend_errors = c.get_u64();
    s.shed_requests = c.get_u64();
    s.hedged_fetches = c.get_u64();
    s.hedge_wins = c.get_u64();
    s.breaker_open_transitions = c.get_u64();
    s.retry_budget_exhausted = c.get_u64();
    s.swr_serves = c.get_u64();
    stats.push_back(s);
  }
  return stats;
}

}  // namespace

std::uint64_t run_fingerprint(const std::vector<AdmittedSession>& admitted,
                              std::size_t shard_count,
                              const faults::FaultSchedule* faults) {
  Fnv fnv;
  fnv.mix(admitted.size());
  for (const AdmittedSession& session : admitted) {
    fnv.mix(session.spec.session_id);
    fnv.mix(session.rng_seed);
    fnv.mix_f64(session.spec.start_time_ms);
  }
  fnv.mix(shard_count);
  if (faults != nullptr) {
    for (const faults::FaultEvent& event : faults->events()) {
      fnv.mix(static_cast<std::uint64_t>(event.kind));
      fnv.mix_f64(event.at_ms);
      fnv.mix_f64(event.duration_ms);
      fnv.mix(event.pop);
      fnv.mix(event.server);
      fnv.mix_f64(event.magnitude);
    }
  }
  return fnv.h;
}

void write_checkpoint(const std::filesystem::path& path,
                      const ShardCheckpoint& checkpoint) {
  std::string payload;
  put_u64(payload, checkpoint.fingerprint);
  put_u64(payload, checkpoint.shard_index);
  put_u64(payload, checkpoint.shard_count);
  put_u64(payload, checkpoint.next_index);
  put_u64(payload, checkpoint.spill_committed_bytes);
  put_u64(payload, checkpoint.spill_blocks_written);
  put_ground_truth(payload, checkpoint.ground_truth);
  put_server_stats(payload, checkpoint.server_stats);

  std::string file;
  put_u32(file, kCkptMagic);
  put_u32(file, kCkptVersion);
  put_u64(file, payload.size());
  file += payload;
  put_u32(file, telemetry::crc32c(payload.data(), payload.size()));

  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw sim::HostIoError("checkpoint: cannot open " + tmp.string());
    }
    if (failpoints::should_fail(failpoints::Site::kCheckpointWrite)) {
      out.setstate(std::ios::badbit);
    }
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
    out.flush();
    out.close();
    if (out.fail()) {
      // A failed tmp write never touches the previous sidecar at `path`;
      // drop the torn tmp so nothing mistakes it for a checkpoint.
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      throw sim::HostIoError("checkpoint: error writing " + tmp.string());
    }
  }
  // Atomic within the directory: a crash leaves either the old complete
  // sidecar or the new complete sidecar, never a torn one at `path`.
  std::error_code rename_ec;
  if (failpoints::should_fail(failpoints::Site::kCheckpointRename)) {
    rename_ec = std::make_error_code(std::errc::io_error);
  } else {
    std::filesystem::rename(tmp, path, rename_ec);
  }
  if (rename_ec) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw sim::HostIoError("checkpoint: cannot rename " + tmp.string() +
                           " to " + path.string() + ": " +
                           rename_ec.message());
  }
}

std::optional<ShardCheckpoint> read_checkpoint(
    const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  char header[16];
  if (!in.read(header, sizeof header)) return std::nullopt;
  if (load_u32(header) != kCkptMagic) return std::nullopt;
  if (load_u32(header + 4) != kCkptVersion) return std::nullopt;
  const std::uint64_t payload_size = load_u64(header + 8);
  // Sanity-bound the allocation against the real file size.
  in.seekg(0, std::ios::end);
  const std::uint64_t file_size = static_cast<std::uint64_t>(in.tellg());
  if (file_size < sizeof header + 4 ||
      payload_size > file_size - sizeof header - 4) {
    return std::nullopt;
  }
  in.seekg(sizeof header, std::ios::beg);
  std::string payload(payload_size, '\0');
  char crc_raw[4];
  if (!in.read(payload.data(), static_cast<std::streamsize>(payload_size)) ||
      !in.read(crc_raw, 4)) {
    return std::nullopt;
  }
  if (telemetry::crc32c(payload.data(), payload.size()) !=
      load_u32(crc_raw)) {
    return std::nullopt;
  }

  try {
    Cursor c{payload.data(), payload.data() + payload.size()};
    ShardCheckpoint checkpoint;
    checkpoint.fingerprint = c.get_u64();
    checkpoint.shard_index = c.get_u64();
    checkpoint.shard_count = c.get_u64();
    checkpoint.next_index = c.get_u64();
    checkpoint.spill_committed_bytes = c.get_u64();
    checkpoint.spill_blocks_written = c.get_u64();
    checkpoint.ground_truth = get_ground_truth(c);
    checkpoint.server_stats = get_server_stats(c);
    if (c.p != c.end) return std::nullopt;
    return checkpoint;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace vstream::engine

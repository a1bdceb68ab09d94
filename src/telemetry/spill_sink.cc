#include "telemetry/spill_sink.h"

#include <algorithm>

namespace vstream::telemetry {

SpillSink::SpillSink(const std::filesystem::path& path)
    : path_(path), writer_(path) {}

SpillSink::SpillSink(const std::filesystem::path& path,
                     std::uint64_t committed_bytes,
                     std::uint64_t blocks_already_written)
    : path_(path), writer_(path, committed_bytes, blocks_already_written) {}

SessionRecordGroup& SpillSink::group_for(std::uint64_t session_id) {
  if (last_ != nullptr && last_->session_id == session_id) return *last_;
  auto [it, inserted] = live_.try_emplace(session_id);
  if (inserted) {
    it->second.session_id = session_id;
    peak_live_ = std::max(peak_live_, live_.size());
  }
  last_ = &it->second;
  return *last_;
}

void SpillSink::record(PlayerSessionRecord r) {
  group_for(r.session_id).player_sessions.push_back(std::move(r));
}

void SpillSink::record(CdnSessionRecord r) {
  group_for(r.session_id).cdn_sessions.push_back(std::move(r));
}

void SpillSink::record(PlayerChunkRecord r) {
  group_for(r.session_id).player_chunks.push_back(std::move(r));
}

void SpillSink::record(CdnChunkRecord r) {
  group_for(r.session_id).cdn_chunks.push_back(std::move(r));
}

void SpillSink::record(TcpSnapshotRecord r) {
  group_for(r.session_id).tcp_snapshots.push_back(std::move(r));
}

void SpillSink::session_complete(std::uint64_t session_id) {
  const auto it = live_.find(session_id);
  if (it == live_.end()) return;  // a session may legitimately emit nothing
  writer_.write(it->second);
  live_.erase(it);
  last_ = nullptr;
}

void SpillSink::flush_live() {
  for (const auto& [id, group] : live_) writer_.write(group);
  live_.clear();
  last_ = nullptr;
}

void SpillSink::finish() {
  flush_live();
  writer_.close();
}

}  // namespace vstream::telemetry

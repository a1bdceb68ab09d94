#include "telemetry/spill_sink.h"

#include <algorithm>

namespace vstream::telemetry {

SessionRecordGroup& SpillSink::group_for(std::uint64_t session_id) {
  if (last_ != nullptr && last_->session_id == session_id) return *last_;
  auto [it, inserted] = live_.try_emplace(session_id);
  if (inserted) it->second.session_id = session_id;
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

void SpillSink::encode(const SessionRecordGroup& group) {
  const std::size_t begin = bytes_.size();
  encoder_.encode(group, bytes_);
  blocks_.push_back({group.session_id, begin, bytes_.size() - begin});
}

void SpillSink::session_complete(std::uint64_t session_id) {
  const auto it = live_.find(session_id);
  if (it == live_.end()) return;  // a session may legitimately emit nothing
  encode(it->second);
  live_.erase(it);
  last_ = nullptr;
}

void SpillSink::finish() {
  for (const auto& [id, group] : live_) encode(group);
  live_.clear();
  last_ = nullptr;
  std::stable_sort(blocks_.begin(), blocks_.end(),
                   [](const Block& a, const Block& b) {
                     return a.session_id < b.session_id;
                   });
}

}  // namespace vstream::telemetry

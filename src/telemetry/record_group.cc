#include "telemetry/record_group.h"

#include <algorithm>
#include <iterator>

namespace vstream::telemetry {

SessionGroupStream::~SessionGroupStream() = default;

namespace {

template <typename Record>
void append_vec(std::vector<Record>& into, std::vector<Record>&& from) {
  if (into.empty()) {
    into = std::move(from);
    return;
  }
  into.insert(into.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
}

/// The run of records for `id` at the head of `records`, advancing
/// `cursor` past it.
template <typename Record>
std::span<const Record> take_run(const std::vector<Record>& records,
                                 std::size_t& cursor, std::uint64_t id) {
  const std::size_t begin = cursor;
  while (cursor < records.size() && records[cursor].session_id == id) {
    ++cursor;
  }
  return std::span<const Record>(records).subspan(begin, cursor - begin);
}

}  // namespace

void SessionRecordGroup::append(SessionRecordGroup&& other) {
  append_vec(player_sessions, std::move(other.player_sessions));
  append_vec(cdn_sessions, std::move(other.cdn_sessions));
  append_vec(player_chunks, std::move(other.player_chunks));
  append_vec(cdn_chunks, std::move(other.cdn_chunks));
  append_vec(tcp_snapshots, std::move(other.tcp_snapshots));
}

std::optional<SessionRecordView> DatasetSessionRuns::next() {
  const Dataset& d = *data_;
  // The next session id is the smallest id at any stream head — streams
  // are individually sorted, so this walks ids in ascending order.
  std::uint64_t id = 0;
  bool found = false;
  const auto consider = [&](const auto& records, std::size_t cursor) {
    if (cursor < records.size() &&
        (!found || records[cursor].session_id < id)) {
      id = records[cursor].session_id;
      found = true;
    }
  };
  consider(d.player_sessions, ps_);
  consider(d.cdn_sessions, cs_);
  consider(d.player_chunks, pc_);
  consider(d.cdn_chunks, cc_);
  consider(d.tcp_snapshots, ts_);
  if (!found) return std::nullopt;

  return SessionRecordView{id,
                           take_run(d.player_sessions, ps_, id),
                           take_run(d.cdn_sessions, cs_, id),
                           take_run(d.player_chunks, pc_, id),
                           take_run(d.cdn_chunks, cc_, id),
                           take_run(d.tcp_snapshots, ts_, id)};
}

std::optional<SessionRecordGroup> DatasetGroupStream::next() {
  const std::optional<SessionRecordView> run = runs_.next();
  if (!run) return std::nullopt;
  const auto copy = [](const auto& span) {
    return std::vector(span.begin(), span.end());
  };
  SessionRecordGroup group;
  group.session_id = run->session_id;
  group.player_sessions = copy(run->player_sessions);
  group.cdn_sessions = copy(run->cdn_sessions);
  group.player_chunks = copy(run->player_chunks);
  group.cdn_chunks = copy(run->cdn_chunks);
  group.tcp_snapshots = copy(run->tcp_snapshots);
  return group;
}

}  // namespace vstream::telemetry

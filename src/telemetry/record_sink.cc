#include "telemetry/record_sink.h"

#include <algorithm>

namespace vstream::telemetry {

namespace {

template <typename Record>
void sort_by_session(std::vector<Record>& records) {
  const auto by_session = [](const Record& a, const Record& b) {
    return a.session_id < b.session_id;
  };
  if (!std::is_sorted(records.begin(), records.end(), by_session)) {
    std::stable_sort(records.begin(), records.end(), by_session);
  }
}

}  // namespace

void canonicalize(Dataset& data) {
  sort_by_session(data.player_sessions);
  sort_by_session(data.cdn_sessions);
  sort_by_session(data.player_chunks);
  sort_by_session(data.cdn_chunks);
  sort_by_session(data.tcp_snapshots);
}

RecordSink::~RecordSink() = default;

Dataset MemorySink::take() {
  Dataset out = std::move(data_);
  data_ = Dataset{};
  return out;
}

}  // namespace vstream::telemetry

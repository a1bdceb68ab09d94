// The record schema: every column of the five telemetry record types
// (records.h), declared once, in CSV column order.
//
// A column is its name plus an accessor returning a reference to the
// field, so nested fields (a snapshot's info.srtt_ms) are columns like any
// other.  The field type gives the column its kind — u32, u64, f64, bool,
// string or enum; the one kind a type cannot tell apart, an IPv4 address
// held in a uint32_t, is tagged with ip_column().  Each record type also
// names its stream ("cdn_chunks"), which is its CSV file stem and the
// label of its errors.
//
// The CSV writer and reader (export.cc) and the spill codec
// (spill_format.cc) are folds over these lists: a column added here is
// written, read, spilled and loaded with no further code.  Column order is
// the external format — the CSV header and the spill payload both follow
// it, so reordering columns changes both (and needs a spill version bump).
// The first column of every record type is session_id: the join key, and
// block-level in the spill format.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>

#include "telemetry/records.h"

namespace vstream::telemetry {

template <typename Get, bool kIp = false>
struct Column {
  std::string_view name;
  Get get;  ///< record& -> field&, for const and mutable records alike
  static constexpr bool is_ip = kIp;
};

template <typename Get>
constexpr Column<Get> column(std::string_view name, Get get) {
  return {name, get};
}

/// A uint32_t column holding an IPv4 address (dotted quad in CSV).
template <typename Get>
constexpr Column<Get, true> ip_column(std::string_view name, Get get) {
  return {name, get};
}

/// The last enumerator of each enum a column holds: readers reject any
/// value beyond it (enumerators count up from zero).
constexpr cdn::CacheLevel last_enumerator(cdn::CacheLevel) {
  return cdn::CacheLevel::kMiss;
}
constexpr cdn::BreakerState last_enumerator(cdn::BreakerState) {
  return cdn::BreakerState::kHalfOpen;
}
constexpr net::AccessType last_enumerator(net::AccessType) {
  return net::AccessType::kInternational;
}

template <typename Rec>
struct RecordSchema;

/// Table 3, player row.
template <>
struct RecordSchema<PlayerSessionRecord> {
  static constexpr std::string_view kStream = "player_sessions";
  static constexpr auto kColumns = std::make_tuple(
      column("session_id", [](auto& r) -> auto& { return r.session_id; }),
      ip_column("client_ip", [](auto& r) -> auto& { return r.client_ip; }),
      column("user_agent", [](auto& r) -> auto& { return r.user_agent; }),
      column("video_duration_s",
             [](auto& r) -> auto& { return r.video_duration_s; }),
      column("start_time_ms", [](auto& r) -> auto& { return r.start_time_ms; }),
      column("startup_ms", [](auto& r) -> auto& { return r.startup_ms; }),
      column("chunks_requested",
             [](auto& r) -> auto& { return r.chunks_requested; }),
      column("completed", [](auto& r) -> auto& { return r.completed; }));
};

/// Table 3, CDN row.
template <>
struct RecordSchema<CdnSessionRecord> {
  static constexpr std::string_view kStream = "cdn_sessions";
  static constexpr auto kColumns = std::make_tuple(
      column("session_id", [](auto& r) -> auto& { return r.session_id; }),
      ip_column("observed_ip", [](auto& r) -> auto& { return r.observed_ip; }),
      column("observed_user_agent",
             [](auto& r) -> auto& { return r.observed_user_agent; }),
      column("pop", [](auto& r) -> auto& { return r.pop; }),
      column("server", [](auto& r) -> auto& { return r.server; }),
      column("org", [](auto& r) -> auto& { return r.org; }),
      column("access", [](auto& r) -> auto& { return r.access; }),
      column("city", [](auto& r) -> auto& { return r.city; }),
      column("country", [](auto& r) -> auto& { return r.country; }),
      column("client_distance_km",
             [](auto& r) -> auto& { return r.client_distance_km; }));
};

/// Table 2, player rows.
template <>
struct RecordSchema<PlayerChunkRecord> {
  static constexpr std::string_view kStream = "player_chunks";
  static constexpr auto kColumns = std::make_tuple(
      column("session_id", [](auto& r) -> auto& { return r.session_id; }),
      column("chunk_id", [](auto& r) -> auto& { return r.chunk_id; }),
      column("request_sent_ms",
             [](auto& r) -> auto& { return r.request_sent_ms; }),
      column("dfb_ms", [](auto& r) -> auto& { return r.dfb_ms; }),
      column("dlb_ms", [](auto& r) -> auto& { return r.dlb_ms; }),
      column("bitrate_kbps", [](auto& r) -> auto& { return r.bitrate_kbps; }),
      column("rebuffer_ms", [](auto& r) -> auto& { return r.rebuffer_ms; }),
      column("rebuffer_count",
             [](auto& r) -> auto& { return r.rebuffer_count; }),
      column("visible", [](auto& r) -> auto& { return r.visible; }),
      column("avg_fps", [](auto& r) -> auto& { return r.avg_fps; }),
      column("dropped_frames",
             [](auto& r) -> auto& { return r.dropped_frames; }),
      column("total_frames", [](auto& r) -> auto& { return r.total_frames; }),
      column("retries", [](auto& r) -> auto& { return r.retries; }),
      column("timeouts", [](auto& r) -> auto& { return r.timeouts; }),
      column("failed_over", [](auto& r) -> auto& { return r.failed_over; }),
      column("recovery_ms", [](auto& r) -> auto& { return r.recovery_ms; }));
};

/// Table 2, CDN (app layer) row.
template <>
struct RecordSchema<CdnChunkRecord> {
  static constexpr std::string_view kStream = "cdn_chunks";
  static constexpr auto kColumns = std::make_tuple(
      column("session_id", [](auto& r) -> auto& { return r.session_id; }),
      column("chunk_id", [](auto& r) -> auto& { return r.chunk_id; }),
      column("dwait_ms", [](auto& r) -> auto& { return r.dwait_ms; }),
      column("dopen_ms", [](auto& r) -> auto& { return r.dopen_ms; }),
      column("dread_ms", [](auto& r) -> auto& { return r.dread_ms; }),
      column("dbe_ms", [](auto& r) -> auto& { return r.dbe_ms; }),
      column("cache_level", [](auto& r) -> auto& { return r.cache_level; }),
      column("chunk_bytes", [](auto& r) -> auto& { return r.chunk_bytes; }),
      column("pop", [](auto& r) -> auto& { return r.pop; }),
      column("server", [](auto& r) -> auto& { return r.server; }),
      column("served_stale", [](auto& r) -> auto& { return r.served_stale; }),
      column("shed", [](auto& r) -> auto& { return r.shed; }),
      column("hedged", [](auto& r) -> auto& { return r.hedged; }),
      column("hedge_won", [](auto& r) -> auto& { return r.hedge_won; }),
      column("breaker", [](auto& r) -> auto& { return r.breaker; }),
      column("budget_denied",
             [](auto& r) -> auto& { return r.budget_denied; }),
      column("served_swr", [](auto& r) -> auto& { return r.served_swr; }));
};

/// Table 2, CDN (TCP layer) row.
template <>
struct RecordSchema<TcpSnapshotRecord> {
  static constexpr std::string_view kStream = "tcp_snapshots";
  static constexpr auto kColumns = std::make_tuple(
      column("session_id", [](auto& r) -> auto& { return r.session_id; }),
      column("chunk_id", [](auto& r) -> auto& { return r.chunk_id; }),
      column("at_ms", [](auto& r) -> auto& { return r.at_ms; }),
      column("srtt_ms", [](auto& r) -> auto& { return r.info.srtt_ms; }),
      column("rttvar_ms", [](auto& r) -> auto& { return r.info.rttvar_ms; }),
      column("cwnd_segments",
             [](auto& r) -> auto& { return r.info.cwnd_segments; }),
      column("ssthresh_segments",
             [](auto& r) -> auto& { return r.info.ssthresh_segments; }),
      column("mss_bytes", [](auto& r) -> auto& { return r.info.mss_bytes; }),
      column("total_retrans",
             [](auto& r) -> auto& { return r.info.total_retrans; }),
      column("segments_out",
             [](auto& r) -> auto& { return r.info.segments_out; }),
      column("bytes_acked",
             [](auto& r) -> auto& { return r.info.bytes_acked; }),
      column("in_slow_start",
             [](auto& r) -> auto& { return r.info.in_slow_start; }));
};

/// The stored type of column `Col` of record type `Rec`.
template <typename Rec, typename Col>
using field_t = std::remove_cvref_t<decltype(std::declval<const Col&>().get(
    std::declval<Rec&>()))>;

/// The record type of a stream (a vector of records), however qualified.
template <typename Records>
using record_t = typename std::remove_cvref_t<Records>::value_type;

template <typename Rec>
inline constexpr std::size_t kColumnCount =
    std::tuple_size_v<decltype(RecordSchema<Rec>::kColumns)>;

/// Call `f(column)` for every column of `Rec`, in order.
template <typename Rec, typename F>
void for_each_column(F&& f) {
  std::apply([&](const auto&... col) { (f(col), ...); },
             RecordSchema<Rec>::kColumns);
}

/// Call `f(column)` for every column of `Rec` after session_id, in order:
/// the columns of a spill payload, where session_id is block-level.
template <typename Rec, typename F>
void for_each_payload_column(F&& f) {
  static_assert(std::get<0>(RecordSchema<Rec>::kColumns).name == "session_id");
  std::apply([&](const auto& /*session_id*/,
                 const auto&... col) { (f(col), ...); },
             RecordSchema<Rec>::kColumns);
}

/// The CSV header line of `Rec` (no newline): its column names, in order.
template <typename Rec>
std::string csv_header() {
  std::string header;
  for_each_column<Rec>([&](const auto& col) {
    if (!header.empty()) header += ',';
    header += col.name;
  });
  return header;
}

}  // namespace vstream::telemetry

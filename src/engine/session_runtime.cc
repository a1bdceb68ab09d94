#include "engine/session_runtime.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "net/geo.h"

namespace vstream::engine {

namespace {

/// Rounds the per-round TCP sample buffer holds before it must grow.  At
/// paper scale a chunk takes a median 33 rounds and a p99 of 90 (seed 42,
/// 3,000 sessions), so this covers 99% of chunks, and the rest grow the
/// shared buffer once.  Reserving up front keeps its capacity from
/// depending on which chunk happens to come first.
constexpr std::size_t kRoundSampleReserve = 128;

std::uint64_t mix64(std::uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

/// Stable proxy egress IP for an organization (198.18.0.0/15 is reserved
/// for benchmarking — a tidy home for synthetic middleboxes).
net::IpV4 org_proxy_ip(const std::string& org) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const char c : org) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  h = mix64(h);
  return net::make_ip(198, 18, static_cast<std::uint8_t>(h >> 8),
                      static_cast<std::uint8_t>(h));
}

/// A couple of mega-proxy egress points (cloud security products) that
/// funnel many organizations; they trip the paper's volume rule (§3-ii).
net::IpV4 mega_proxy_ip(std::uint64_t token) {
  return net::make_ip(198, 19, 0, token % 2 == 0 ? 10 : 20);
}

}  // namespace

bool SessionRuntime::resolve_gpu(const SessionOverrides* overrides) const {
  return overrides != nullptr && overrides->gpu ? *overrides->gpu
                                                : spec_.client.gpu;
}

double SessionRuntime::resolve_cpu_load(
    const SessionOverrides* overrides) const {
  return overrides != nullptr && overrides->cpu_load ? *overrides->cpu_load
                                                     : spec_.client.cpu_load;
}

SessionRuntime::SessionRuntime(RunContext& ctx, workload::SessionSpec spec,
                               sim::Rng rng, const SessionOverrides* overrides)
    : ctx_(ctx),
      spec_(std::move(spec)),
      rng_(std::move(rng)),
      ref_(ctx.fleet->route(spec_.client.prefix->location, spec_.video_id,
                            spec_.video_rank, spec_.session_id,
                            ctx.scenario->routing, spec_.start_time_ms)),
      distance_km_(net::haversine_km(spec_.client.prefix->location,
                                     ctx.fleet->pop_city(ref_.pop).location)),
      stack_(overrides != nullptr && overrides->ds_profile
                 ? client::DownloadStack(*overrides->ds_profile)
                 : client::DownloadStack(spec_.client.ua)),
      rendering_(client::RenderConfig{resolve_gpu(overrides),
                                      resolve_cpu_load(overrides),
                                      spec_.client.visible},
                 spec_.client.ua),
      buffer_(ctx.scenario->buffer) {
  if (overrides != nullptr) overrides_ = *overrides;

  const workload::ClientProfile& client = spec_.client;
  bottleneck_kbps_ = overrides_ && overrides_->bottleneck_kbps
                         ? *overrides_->bottleneck_kbps
                         : client.prefix->bandwidth_kbps;
  // Peak-hour congestion epoch: persistent extra latency this session
  // (survives a failover — the congestion sits on the access path).
  if (client.prefix->congestion_prone &&
      rng_.bernoulli(ctx_.scenario->congestion_epoch_probability)) {
    congestion_offset_ms_ =
        rng_.lognormal_median(ctx_.scenario->congestion_offset_median_ms,
                              ctx_.scenario->congestion_offset_sigma);
  }
  tcp_config_ = ctx_.scenario->tcp;
  if (ctx_.scenario->rwnd_median_segments > 0.0) {
    // Per-session receive-buffer autotuning outcome (flow-control cap).
    tcp_config_.receiver_window_segments = static_cast<std::uint32_t>(
        std::clamp(rng_.lognormal_median(ctx_.scenario->rwnd_median_segments,
                                         ctx_.scenario->rwnd_sigma),
                   64.0, 4096.0));
  }
  rebuild_connection();

  const client::AbrKind abr_kind =
      overrides_ && overrides_->abr ? *overrides_->abr : ctx_.scenario->abr;
  const std::uint32_t fixed_rate = overrides_ && overrides_->fixed_bitrate_kbps
                                       ? *overrides_->fixed_bitrate_kbps
                                       : 0;
  abr_ = client::make_abr(abr_kind, fixed_rate);
}

void SessionRuntime::rebuild_connection() {
  const workload::ClientProfile& client = spec_.client;
  distance_km_ = net::haversine_km(client.prefix->location,
                                   ctx_.fleet->pop_city(ref_.pop).location);
  net::PathConfig path = net::make_path_config(client.prefix->access,
                                               distance_km_, bottleneck_kbps_);
  // Chronically lossy last miles reach percent-level loss, capped so the
  // transport model stays in a sane regime.
  path.random_loss =
      std::min(0.02, path.random_loss * client.prefix->loss_multiplier);
  path.base_rtt_ms += congestion_offset_ms_;
  if (ctx_.idealization != nullptr && ctx_.idealization->lossless_network()) {
    // Counterfactual lossless path: no random loss and no peak-hour
    // congestion penalty.  The bottleneck rate and propagation RTT stay —
    // physics is not a subsystem we can fix.
    path.random_loss = 0.0;
    path.base_rtt_ms -= congestion_offset_ms_;
  }
  current_loss_ = path.random_loss;
  conn_ = std::make_unique<net::TcpConnection>(tcp_config_, path, rng_.fork());
}

cdn::ServeResult SessionRuntime::serve_chunk(const cdn::ChunkKey& key,
                                             sim::Ms now,
                                             const cdn::ServeOptions& opts) {
  const std::uint32_t linear =
      ref_.pop * ctx_.fleet->servers_per_pop() + ref_.server;
  return ctx_.fleet->server(ref_).serve(
      key, now, rng_, *ctx_.warm_archive, ref_.server,
      server_states_[linear], (*ctx_.server_stats)[linear], opts,
      ctx_.idealization);
}

sim::Ms SessionRuntime::step(sim::Ms fleet_now) {
  const std::uint32_t c = next_chunk_++;
  const double tau = ctx_.catalog->chunk_duration_s();
  const workload::VideoMeta& meta = ctx_.catalog->video(spec_.video_id);
  const workload::ClientProfile& client = spec_.client;
  const auto ladder = client::default_bitrate_ladder();

  sim::Ms manifest_ms = 0.0;
  if (c == 0) {
    // The session starts with the manifest request over the same TCP
    // connection (§2 model).  Manifests are small and served from memory;
    // the cost is one round trip plus a tiny service time, and it also
    // warms the connection's first congestion-window round.
    const net::TransferResult manifest = conn_->transfer(2'048);
    manifest_ms =
        manifest.duration_ms + rng_.lognormal_median(1.0, 0.5) /*service*/;
    buffer_.advance(manifest_ms);  // wall clock; nothing playable yet
    session_clock_ms_ += manifest_ms;
  }

  // ---- ABR decision ----
  client::AbrContext ctx;
  ctx.chunk_index = c;
  ctx.buffer_s = buffer_.level_s();
  ctx.max_buffer_s = ctx_.scenario->buffer.max_buffer_s;
  ctx.last_throughput_kbps = last_tp_kbps_;
  ctx.smoothed_throughput_kbps = smoothed_tp_kbps_;
  ctx.last_bitrate_kbps = last_bitrate_;
  ctx.known_bad_prefix = ctx_.bad_prefixes != nullptr &&
                         ctx_.bad_prefixes->contains(client.prefix->prefix);
  // Oracle-ABR counterfactual: pick the highest rung sustainable at the
  // session's true bottleneck rate (with delivery headroom), which the
  // simulator knows exactly and a production ABR can only estimate from
  // noisy throughput samples.  abr_->choose draws no RNG, so substituting
  // the decision leaves every downstream draw aligned with the baseline.
  std::uint32_t bitrate;
  if (ctx_.idealization != nullptr && ctx_.idealization->oracle_abr()) {
    bitrate = ladder.front();
    for (const std::uint32_t rung : ladder) {
      if (rung <= 0.85 * bottleneck_kbps_) bitrate = rung;
    }
  } else {
    bitrate = abr_->choose(ctx, ladder);
  }
  last_bitrate_ = bitrate;

  // Last chunk may carry less than tau seconds (§3).
  double this_tau = tau;
  if (c == meta.chunk_count - 1) {
    const double leftover = meta.duration_s - tau * (meta.chunk_count - 1);
    this_tau = std::clamp(leftover, 1.0, tau);
  }
  const std::uint64_t bytes =
      cdn::chunk_bytes_vbr(bitrate, this_tau, spec_.video_id, c);

  // ---- server: issue the request through the recovery machinery ----
  // A failed attempt (dead server, backend error, first byte past the
  // request timeout) costs its share of wall time, then capped exponential
  // backoff; after failover_after_attempts consecutive failures on one
  // server (immediately when it is down) the player fails over to the next
  // live server — cross-PoP when the whole PoP is dark — over a fresh TCP
  // connection.
  const workload::RecoveryPolicy& policy = ctx_.scenario->recovery;
  const cdn::ChunkKey key{spec_.video_id, c, bitrate};
  // Request priority for the server's load shedder: first chunks anchor
  // startup delay and are never shed; a thin client buffer (< 2 chunks)
  // marks a near-stall request; everything else is steady mid-session work.
  cdn::ServeOptions serve_opts;
  serve_opts.priority = c == 0 ? cdn::RequestPriority::kFirstChunk
                        : buffer_.level_s() < 2.0 * tau
                            ? cdn::RequestPriority::kLowBuffer
                            : cdn::RequestPriority::kSteady;
  cdn::ServeResult serve;
  sim::Ms recovery_ms = 0.0;
  std::uint32_t retries = 0;
  std::uint32_t timeouts = 0;
  std::uint32_t attempts_on_server = 0;
  bool failed_over = false;
  bool delivered = false;
  bool any_shed = false;
  bool any_budget_denied = false;
  for (std::uint32_t attempt = 0; attempt <= policy.max_retries; ++attempt) {
    const bool server_dead = ctx_.fleet->is_down(ref_);
    if (server_dead) {
      // Dead servers do not answer; the player waits out the full timeout.
      recovery_ms += policy.request_timeout_ms;
      ++timeouts;
      ++ctx_.ground_truth->request_timeouts;
    } else {
      serve_opts.retry = attempt > 0;
      serve = serve_chunk(key, fleet_now + recovery_ms, serve_opts);
      any_shed |= serve.shed;
      any_budget_denied |= serve.budget_denied;
      if (serve.failed) {
        // Fast local error (cache miss while the backend is unreachable).
        recovery_ms += serve.total_ms();
      } else if (serve.total_ms() > policy.request_timeout_ms) {
        // Alive but too slow (degraded disk, melted backend): the player
        // abandons the attempt at the timeout.
        recovery_ms += policy.request_timeout_ms;
        ++timeouts;
        ++ctx_.ground_truth->request_timeouts;
      } else {
        delivered = true;
        break;
      }
    }
    ++attempts_on_server;
    if (attempt == policy.max_retries) break;  // out of attempts
    const sim::Ms backoff = std::min(
        policy.backoff_cap_ms,
        policy.backoff_base_ms *
            std::pow(policy.backoff_factor, static_cast<double>(attempt)));
    recovery_ms += backoff * rng_.uniform(0.5, 1.0);  // jittered
    ++retries;
    ++ctx_.ground_truth->chunk_retries;
    if (server_dead || attempts_on_server >= policy.failover_after_attempts) {
      const cdn::ServerRef next = ctx_.fleet->failover(
          ref_, client.prefix->location, spec_.video_id,
          fleet_now + recovery_ms);
      if (next.pop != ref_.pop || next.server != ref_.server) {
        ref_ = next;
        failed_over = true;
        attempts_on_server = 0;
        ++ctx_.ground_truth->failover_events;
        rebuild_connection();
      }
    }
  }

  if (!delivered) {
    // Recovery exhausted (e.g. the whole fleet is dark): the player surfaces
    // a fatal error and the session ends early, but always *terminates*.
    spec_.chunk_count = c;  // chunks 0..c-1 were delivered
    completed_ = false;
    ++ctx_.ground_truth->failed_sessions;
    buffer_.advance(recovery_ms);  // the viewer stared at a spinner
    session_clock_ms_ += recovery_ms;
    return manifest_ms + recovery_ms;
  }

  // ---- network transfer ----
  // The connection sits idle while the player backs off and the server
  // works on the request; the bottleneck queue drains meanwhile (and a gap
  // longer than the RTO triggers window validation).
  conn_->idle(recovery_ms + serve.total_ms());
  if (overrides_ && c < overrides_->per_chunk_loss.size() &&
      overrides_->per_chunk_loss[c]) {
    current_loss_ = *overrides_->per_chunk_loss[c];
  }
  {
    // Injected loss bursts ride on top of the path's base loss while
    // active; the path reverts on its own once the burst epoch ends.
    // A lossless-network counterfactual suppresses both.
    double loss = current_loss_;
    if (ctx_.injector != nullptr) {
      loss = std::min(0.25, loss + ctx_.injector->extra_client_loss(fleet_now));
    }
    if (ctx_.idealization != nullptr &&
        ctx_.idealization->lossless_network()) {
      loss = 0.0;
    }
    conn_->mutable_path().set_random_loss(loss);
  }
  std::vector<net::RoundSample> local_rounds;
  std::vector<net::RoundSample>& rounds =
      ctx_.round_scratch != nullptr ? *ctx_.round_scratch : local_rounds;
  rounds.clear();
  rounds.reserve(kRoundSampleReserve);
  const net::TransferResult transfer = conn_->transfer(bytes, &rounds);

  // ---- download stack ----
  client::DownloadStackSample ds = stack_.sample(c, rng_);
  if (overrides_ && overrides_->disable_ds_anomalies &&
      *overrides_->disable_ds_anomalies) {
    ds.buffered_anomaly = false;
  }

  double dfb_ms = 0.0;
  double dlb_ms = 0.0;
  if (ds.buffered_anomaly) {
    // The stack held the whole chunk: the player's first byte arrives only
    // after the full network transfer plus the hold; the bytes then land
    // essentially at once (§4.3-1, Fig. 17).
    dfb_ms = recovery_ms + serve.total_ms() + ds.ds_ms + transfer.duration_ms +
             ds.hold_ms;
    dlb_ms = rng_.uniform(1.0, 8.0);
    ctx_.ground_truth->ds_anomalies[spec_.session_id].push_back(c);
    ++ctx_.ground_truth->total_ds_anomalies;
  } else {
    dfb_ms = recovery_ms + serve.total_ms() + ds.ds_ms + transfer.first_byte_ms;
    dlb_ms = transfer.duration_ms - transfer.first_byte_ms;
  }
  ++ctx_.ground_truth->total_chunks;

  // ---- playout ----
  const client::DrainResult drain = buffer_.advance(dfb_ms + dlb_ms);
  buffer_.add_chunk(this_tau);

  // QoE-sensitive engagement: stalls drive viewers away ([25]).
  if (drain.stall_events > 0 &&
      rng_.bernoulli(ctx_.scenario->stall_abandonment_probability)) {
    spec_.chunk_count = c + 1;  // this chunk is the viewer's last
    ++ctx_.ground_truth->stall_abandonments;
  }

  // ---- rendering ----
  const double download_rate = sim::seconds(this_tau) / (dfb_ms + dlb_ms);
  const client::RenderResult rendered = rendering_.render_chunk(
      this_tau, bitrate, download_rate, buffer_.level_s(), rng_);

  // ---- telemetry: player side ----
  telemetry::PlayerChunkRecord player_rec;
  player_rec.session_id = spec_.session_id;
  player_rec.chunk_id = c;
  player_rec.request_sent_ms = session_clock_ms_;
  player_rec.dfb_ms = dfb_ms;
  player_rec.dlb_ms = dlb_ms;
  player_rec.bitrate_kbps = bitrate;
  player_rec.rebuffer_ms = drain.stalled_ms;
  player_rec.rebuffer_count = drain.stall_events;
  player_rec.visible = client.visible;
  player_rec.avg_fps = rendered.avg_fps;
  player_rec.dropped_frames = rendered.dropped_frames;
  player_rec.total_frames = rendered.total_frames;
  player_rec.retries = retries;
  player_rec.timeouts = timeouts;
  player_rec.failed_over = failed_over;
  player_rec.recovery_ms = recovery_ms;
  ctx_.collector->record(player_rec);

  // ---- telemetry: CDN side ----
  telemetry::CdnChunkRecord cdn_rec;
  cdn_rec.session_id = spec_.session_id;
  cdn_rec.chunk_id = c;
  cdn_rec.dwait_ms = serve.dwait_ms;
  cdn_rec.dopen_ms = serve.dopen_ms;
  cdn_rec.dread_ms = serve.dread_ms;
  cdn_rec.dbe_ms = serve.dbe_ms;
  cdn_rec.cache_level = serve.level;
  cdn_rec.chunk_bytes = bytes;
  cdn_rec.pop = ref_.pop;
  cdn_rec.server = ref_.server;
  cdn_rec.served_stale = serve.stale;
  // Overload-protection telemetry: shed/budget denials are sticky across
  // the chunk's failed attempts (the delivered serve itself succeeded);
  // hedge/SWR/breaker describe the delivering serve.
  cdn_rec.shed = any_shed;
  cdn_rec.budget_denied = any_budget_denied;
  cdn_rec.hedged = serve.hedged;
  cdn_rec.hedge_won = serve.hedge_won;
  cdn_rec.served_swr = serve.swr;
  cdn_rec.breaker = serve.breaker;
  ctx_.collector->record(cdn_rec);

  // tcp_info sampling: the transfer starts once the server begins writing
  // (after recovery and its internal latency).
  ctx_.collector->sample_transfer(
      spec_.session_id, c, session_clock_ms_ + recovery_ms + serve.total_ms(),
      rounds);

  // ---- client-observed throughput feeds the ABR (§4.3-1's trap:
  // stack-buffered chunks inflate this estimate) ----
  last_tp_kbps_ =
      dlb_ms > 0.0 ? static_cast<double>(bytes) * 8.0 / dlb_ms : 0.0;
  // Outlier screen (§4.3-1 recommendation 2): against the running EWMA once
  // one exists, else against an absolute sanity cap (a 2015 client
  // reporting >50 Mbps instantaneous delivery is stack buffering, not
  // network speed).
  const bool outlier =
      ctx_.scenario->abr_filters_throughput_outliers &&
      (smoothed_tp_kbps_ > 0.0 ? last_tp_kbps_ > 4.0 * smoothed_tp_kbps_
                               : last_tp_kbps_ > 50'000.0);
  if (!outlier) {
    smoothed_tp_kbps_ = smoothed_tp_kbps_ == 0.0
                            ? last_tp_kbps_
                            : 0.7 * smoothed_tp_kbps_ + 0.3 * last_tp_kbps_;
  }

  sim::Ms wall_ms = manifest_ms + dfb_ms + dlb_ms;
  session_clock_ms_ += dfb_ms + dlb_ms;

  // ---- inter-chunk pacing: respect the buffer ceiling ----
  if (has_more()) {
    const double headroom = buffer_.headroom_s();
    if (headroom < tau) {
      const double wait_ms = sim::seconds(tau - headroom);
      buffer_.advance(wait_ms);  // buffer is deep; this never stalls
      conn_->idle(wait_ms);
      session_clock_ms_ += wait_ms;
      wall_ms += wait_ms;
    }
  }
  return wall_ms;
}

void SessionRuntime::finish() {
  const workload::ClientProfile& client = spec_.client;
  const workload::VideoMeta& meta = ctx_.catalog->video(spec_.video_id);

  telemetry::PlayerSessionRecord player_session;
  player_session.session_id = spec_.session_id;
  player_session.client_ip = client.ip;
  player_session.user_agent = client::user_agent_string(client.ua);
  player_session.video_duration_s = meta.duration_s;
  player_session.start_time_ms = spec_.start_time_ms;
  // Very short videos can end below the startup threshold; the player then
  // starts as soon as the stream completes.
  player_session.startup_ms =
      buffer_.started() ? buffer_.startup_ms() : session_clock_ms_;
  player_session.chunks_requested = spec_.chunk_count;
  player_session.completed = completed_;

  telemetry::CdnSessionRecord cdn_session;
  cdn_session.session_id = spec_.session_id;
  cdn_session.observed_ip = client.ip;
  cdn_session.observed_user_agent = player_session.user_agent;
  cdn_session.pop = ref_.pop;
  cdn_session.server = ref_.server;
  cdn_session.org = client.prefix->org;
  cdn_session.access = client.prefix->access;
  cdn_session.city = client.prefix->city;
  cdn_session.country = client.prefix->country;
  cdn_session.client_distance_km = distance_km_;

  if (client.behind_proxy) {
    ctx_.ground_truth->proxied[spec_.session_id] = true;
    if (rng_.bernoulli(0.5)) {
      // Explicit org proxy: the CDN sees the proxy's egress IP while the
      // beacon reports the browser's own address -> IP-mismatch rule.
      cdn_session.observed_ip = org_proxy_ip(client.prefix->org);
    } else {
      // Transparent mega-proxy/NAT: both sides see the same shared egress
      // IP, so only the volume rule can catch it.
      const net::IpV4 shared = mega_proxy_ip(spec_.session_id);
      cdn_session.observed_ip = shared;
      player_session.client_ip = shared;
    }
  }

  ctx_.collector->record(player_session);
  ctx_.collector->record(cdn_session);
}

}  // namespace vstream::engine

// Counterfactual idealization: replay a session with exactly ONE
// subsystem made perfect, and the QoE delta against the factual replay is
// that subsystem's contribution to the session's problems.
//
// This is the attribution methodology of Arye et al. ("Poor Video
// Streaming Performance Explained (and Fixed)"), made exact by our
// engine's determinism: a replayed session consumes the same RNG
// substream, faces the same fault epochs and the same warm cache content,
// so the *only* difference between baseline and idealized replay is the
// idealized subsystem — blame fractions are deterministic, not sampled.
//
// Exactly one subsystem is idealized per replay (policies compose by
// running more replays, not by stacking flags):
//
//   kCache     every request is a RAM hit: no disk seeks, no open-retry
//              timer, no backend fetch on the serving path.
//   kNetwork   lossless client path: zero random loss (including injected
//              loss bursts) and no peak-hour congestion offset.
//   kBackend   instant origin: zero first-byte latency, never down, never
//              slowed — misses still traverse the open-retry timer.
//   kOverload  no overload protection engages and no overload exists:
//              nothing is shed, breakers read closed, retry budget is
//              boundless.
//   kAbr       oracle rate selection: the highest ladder rung sustainable
//              at the session's true bottleneck bandwidth, which the
//              simulator knows and a production ABR can only estimate.
//
// The hooks live in cdn::AtsServer::serve (cache/backend/overload) and
// engine::SessionRuntime (network/ABR); a null policy (or kNone) is the
// bit-exact factual replay.
#pragma once

#include <cstdint>

namespace vstream::cdn {

enum class IdealizedSubsystem : std::uint8_t {
  kNone = 0,
  kCache,
  kNetwork,
  kBackend,
  kOverload,
  kAbr,
};

/// All idealizable subsystems, in the canonical blame-report order.
inline constexpr IdealizedSubsystem kIdealizedSubsystems[] = {
    IdealizedSubsystem::kCache,    IdealizedSubsystem::kNetwork,
    IdealizedSubsystem::kBackend,  IdealizedSubsystem::kOverload,
    IdealizedSubsystem::kAbr,
};
inline constexpr std::size_t kIdealizedSubsystemCount = 5;

constexpr const char* idealization_name(IdealizedSubsystem s) {
  switch (s) {
    case IdealizedSubsystem::kNone:
      return "none";
    case IdealizedSubsystem::kCache:
      return "cache";
    case IdealizedSubsystem::kNetwork:
      return "network";
    case IdealizedSubsystem::kBackend:
      return "backend";
    case IdealizedSubsystem::kOverload:
      return "overload";
    case IdealizedSubsystem::kAbr:
      return "abr";
  }
  return "none";
}

struct IdealizationPolicy {
  IdealizedSubsystem target = IdealizedSubsystem::kNone;

  constexpr bool zero_latency_cache() const {
    return target == IdealizedSubsystem::kCache;
  }
  constexpr bool lossless_network() const {
    return target == IdealizedSubsystem::kNetwork;
  }
  constexpr bool instant_backend() const {
    return target == IdealizedSubsystem::kBackend;
  }
  constexpr bool no_overload() const {
    return target == IdealizedSubsystem::kOverload;
  }
  constexpr bool oracle_abr() const {
    return target == IdealizedSubsystem::kAbr;
  }
};

}  // namespace vstream::cdn

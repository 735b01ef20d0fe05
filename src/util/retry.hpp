// The retry/backoff policy for re-attempted work: the cluster
// coordinator's task reassignment schedules through a RetryPolicy instead
// of growing its own capped-doubling loop.
//
// The schedule is the classic capped exponential: the delay before retrying
// after failed attempt a (0-based) is min(base * 2^a, cap). Optional
// *deterministic* jitter spreads retries so a burst of simultaneous
// failures (a dead worker dropping ten tasks at once) does not thunder back
// in lockstep: the jittered delay is uniform in [d*(1-j), d*(1+j)], keyed
// on (seed, key, attempt) so every experiment replays identically.
#pragma once

#include <chrono>
#include <cstdint>

namespace weakkeys::util {

struct RetryPolicy {
  /// First retry delay; doubles each failed attempt.
  std::chrono::milliseconds base{1};
  /// Upper bound on any single delay (applied before and after jitter).
  std::chrono::milliseconds cap{64};
  /// Jitter fraction in [0, 1]: 0 = deterministic schedule, 0.5 = each
  /// delay drawn uniformly from [0.5d, 1.5d].
  double jitter = 0.0;
  /// Attempts allowed per task before the caller declares it failed.
  std::size_t max_attempts = 64;
  /// Seed for the jitter stream (ignored while jitter == 0).
  std::uint64_t seed = 0;

  /// True when `next_attempt` (0-based) may not run anymore.
  [[nodiscard]] bool exhausted(std::size_t next_attempt) const {
    return next_attempt >= max_attempts;
  }

  /// The un-jittered delay after failed attempt `failed_attempt` (0-based):
  /// min(base * 2^failed_attempt, cap), overflow-safe.
  [[nodiscard]] std::chrono::milliseconds delay(
      std::size_t failed_attempt) const;

  /// delay() with deterministic jitter applied, keyed on (seed, key,
  /// failed_attempt). `key` identifies the retrying entity (task id,
  /// worker id) so concurrent retries de-synchronize. Clamped to
  /// [0, cap]; identical inputs always yield identical delays.
  [[nodiscard]] std::chrono::milliseconds jittered_delay(
      std::uint64_t key, std::size_t failed_attempt) const;
};

}  // namespace weakkeys::util

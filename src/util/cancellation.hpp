// Cooperative cancellation for long-running pipeline stages.
//
// cancel(reason) trips a CancellationToken from any thread, records the
// first reason, and runs registered callbacks exactly once (the cluster
// coordinator registers one that wakes its event loop).
//
// Pipeline code polls at batch granularity (per simulated month, per scan
// snapshot, per remainder-tree task) via throw_if_cancelled(), which throws
// util::Cancelled; the study's run() catches it, flushes telemetry, and
// unwinds cleanly, leaving the per-stage caches and the task journal a
// rerun resumes from. Cancel latency is therefore bounded by the longest
// single batch, which the lifecycle tests pin.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace weakkeys::util {

/// Thrown by poll sites when their token has tripped. Derives from
/// runtime_error so legacy catch sites still flush, but is distinguishable:
/// a cancelled run is an *ordered* stop, not a failure.
class Cancelled : public std::runtime_error {
 public:
  explicit Cancelled(const std::string& reason)
      : std::runtime_error(reason.empty() ? std::string("cancelled")
                                          : "cancelled: " + reason) {}
};

class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Trips the token. The first caller wins the reason; callbacks run
  /// exactly once. Safe to call concurrently and repeatedly.
  void cancel(const std::string& reason);

  /// True once cancel() has been called. One atomic load.
  [[nodiscard]] bool cancelled() const {
    return tripped_.load(std::memory_order_acquire);
  }

  /// The first cancel() reason; empty while untripped.
  [[nodiscard]] std::string reason() const;

  /// Throws util::Cancelled with reason() if the token has tripped.
  void throw_if_cancelled() const {
    if (cancelled()) throw Cancelled(reason());
  }

  /// Registers a callback to run once when the token trips; runs
  /// immediately if it already has. Returns a token for remove_callback().
  /// Callbacks must not re-enter this object.
  std::uint64_t add_callback(std::function<void()> fn);
  void remove_callback(std::uint64_t token);

 private:
  std::atomic<bool> tripped_{false};

  mutable std::mutex mu_;  ///< guards reason_ and callbacks
  std::string reason_;
  bool callbacks_run_ = false;
  std::uint64_t next_callback_token_ = 1;
  std::vector<std::pair<std::uint64_t, std::function<void()>>> callbacks_;
};

}  // namespace weakkeys::util

// Cooperative cancellation for long-running pipeline stages.
//
// The paper's headline computation is a 500-minute batch GCD; jobs that
// long get SIGTERMed by schedulers, exceed deadlines, or stall on a sick
// worker. A CancellationToken is the one object all of those paths share:
//
//   - cancel(reason) trips the token from any normal thread context,
//     records the reason, and runs registered callbacks exactly once;
//   - request_async(signum) trips it from a signal handler — it performs
//     atomic stores only (async-signal-safe; no mutex, no callbacks) and a
//     later promote() from a normal context runs the callbacks and
//     synthesizes a "signal: ..." reason;
//   - set_deadline(...) trips it implicitly once the steady clock passes
//     the deadline: cancelled() folds the deadline check in, so every poll
//     site doubles as a deadline check with no extra bookkeeping.
//
// Pipeline code polls at batch granularity (per simulated month, per scan
// snapshot, per remainder-tree task) via throw_if_cancelled(), which throws
// util::Cancelled; the study's run() catches it, flushes telemetry, writes
// a checkpoint, and unwinds cleanly. Cancel latency is therefore bounded by
// the longest single batch, which the lifecycle tests pin.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
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

  /// Trips the token from a normal thread context. The first caller wins
  /// the reason; callbacks run exactly once across all cancel()/promote()
  /// calls. Safe to call concurrently and repeatedly.
  void cancel(const std::string& reason);

  /// Async-signal-safe trip: atomic stores only. Callbacks do NOT run here
  /// (a signal handler may interrupt a thread holding the callback mutex);
  /// call promote() from a normal context — Study's signal-watcher thread
  /// and monitor tick do — to run them and materialize the reason.
  void request_async(int signum) noexcept {
    signal_.store(signum, std::memory_order_relaxed);
    tripped_.store(true, std::memory_order_release);
  }

  /// Arms (or re-arms) a deadline on the steady clock; the token reads as
  /// cancelled once the clock passes it. `label` names the scope for the
  /// synthesized reason ("deadline exceeded (run)").
  void set_deadline(std::chrono::steady_clock::time_point deadline,
                    const std::string& label = "");
  void clear_deadline();

  /// True once tripped by cancel(), request_async(), or an expired
  /// deadline. Lock-free on the untripped fast path (one relaxed load plus
  /// one clock read only while a deadline is armed).
  [[nodiscard]] bool cancelled() const;

  /// The cancel reason; synthesized for signal/deadline trips ("signal 15",
  /// "deadline exceeded (run)"). Empty while untripped.
  [[nodiscard]] std::string reason() const;

  /// Throws util::Cancelled with reason() if the token has tripped.
  void throw_if_cancelled() const {
    if (cancelled()) throw Cancelled(reason());
  }

  /// Runs pending callbacks if the token tripped through an async or
  /// deadline path that could not run them itself. Returns true when this
  /// call performed the promotion. No-op on an untripped token.
  bool promote();

  /// Registers a callback to run (once, from a normal context) when the
  /// token trips; runs immediately if it already has. Returns a token for
  /// remove_callback(). Callbacks must not re-enter this object.
  std::uint64_t add_callback(std::function<void()> fn);
  void remove_callback(std::uint64_t token);

  /// Seconds until the armed deadline (negative when none is armed).
  [[nodiscard]] double deadline_remaining_s() const;

  /// The signal number delivered via request_async (0 when none).
  [[nodiscard]] int signal() const {
    return signal_.load(std::memory_order_relaxed);
  }

 private:
  void run_callbacks_locked(std::unique_lock<std::mutex>& lock);
  [[nodiscard]] bool deadline_passed() const;
  [[nodiscard]] std::string synthesized_reason() const;

  /// Mutable: cancelled() latches an expired deadline from const context.
  mutable std::atomic<bool> tripped_{false};
  std::atomic<int> signal_{0};
  /// Deadline as steady_clock nanoseconds-since-epoch; min() = unarmed.
  std::atomic<std::int64_t> deadline_ns_{
      std::numeric_limits<std::int64_t>::min()};

  mutable std::mutex mu_;  ///< guards reason_, labels, callbacks
  std::string reason_;
  std::string deadline_label_;
  bool callbacks_run_ = false;
  std::uint64_t next_callback_token_ = 1;
  std::vector<std::pair<std::uint64_t, std::function<void()>>> callbacks_;
};

}  // namespace weakkeys::util

#include "util/cancellation.hpp"

namespace weakkeys::util {

void CancellationToken::cancel(const std::string& reason) {
  std::vector<std::pair<std::uint64_t, std::function<void()>>> callbacks;
  {
    std::lock_guard lock(mu_);
    if (callbacks_run_) return;
    reason_ = reason;
    tripped_.store(true, std::memory_order_release);
    callbacks_run_ = true;
    callbacks = std::move(callbacks_);
    callbacks_.clear();
  }
  // Run outside the lock so callbacks may (indirectly) query the token.
  for (auto& [token, fn] : callbacks) {
    if (fn) fn();
  }
}

std::string CancellationToken::reason() const {
  std::lock_guard lock(mu_);
  return reason_;
}

std::uint64_t CancellationToken::add_callback(std::function<void()> fn) {
  std::unique_lock lock(mu_);
  if (callbacks_run_) {
    // Already tripped and drained: honor the "runs once" contract now.
    lock.unlock();
    fn();
    return 0;
  }
  const std::uint64_t token = next_callback_token_++;
  callbacks_.emplace_back(token, std::move(fn));
  return token;
}

void CancellationToken::remove_callback(std::uint64_t token) {
  if (token == 0) return;
  std::lock_guard lock(mu_);
  std::erase_if(callbacks_,
                [token](const auto& entry) { return entry.first == token; });
}

}  // namespace weakkeys::util

// StudyConfig::from_env: the one reader of the `WEAKKEYS_*` run settings
// (README has the table). Study, the cluster and the tools take resolved
// values and flags; only from_env() callers see the process environment.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "core/study.hpp"

namespace weakkeys::core {

namespace {

constexpr double kHuge = std::numeric_limits<double>::max();
/// MiB settings are scaled to bytes in 64 bits; 2^40 MiB leaves headroom.
constexpr long long kMaxMiB = 1LL << 40;

/// A numeric variable's text; null when it is unset or empty.
const char* numeric_text(const char* name) {
  const char* text = std::getenv(name);
  return text != nullptr && *text != '\0' ? text : nullptr;
}

[[noreturn]] void reject(const char* name, const char* text,
                         const std::string& expected) {
  throw std::invalid_argument(std::string(name) + "=\"" + text +
                              "\": expected " + expected);
}

/// Overlays a whole-string integer in [lo, hi] onto `field`.
template <typename T>
  requires std::is_integral_v<T>
void overlay(const char* name, T& field,
             std::type_identity_t<T> lo = std::numeric_limits<T>::min(),
             std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  const char* text = numeric_text(name);
  if (text == nullptr) return;
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value < lo || value > hi) {
    reject(name, text,
           "an integer in [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "]");
  }
  field = value;
}

/// Overlays a whole-string finite number in [lo, hi] onto `field`.
void overlay(const char* name, double& field, double lo, double hi) {
  const char* text = numeric_text(name);
  if (text == nullptr) return;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) || value < lo ||
      value > hi) {
    char range[64];
    std::snprintf(range, sizeof range, "a number in [%g, %g]", lo, hi);
    reject(name, text, range);
  }
  field = value;
}

/// A set string variable overlays even when empty (an empty path is off).
void overlay(const char* name, std::string& field) {
  if (const char* text = std::getenv(name)) field = text;
}

}  // namespace

StudyConfig StudyConfig::from_env(StudyConfig base) {
  // Corpus and caches. The cache keys store the scale in millionths, so a
  // smaller scale would alias 0.
  overlay("WEAKKEYS_SCALE", base.sim.scale, 1e-6, 1e6);
  overlay("WEAKKEYS_SEED", base.sim.seed);
  overlay("WEAKKEYS_CACHE", base.cache_path);

  // Cluster path.
  overlay("WEAKKEYS_WORKERS", base.worker_processes);
  overlay("WEAKKEYS_WORKER_BIN", base.worker_binary);
  overlay("WEAKKEYS_WORKER_PORT", base.worker_port, 0, 65535);
  overlay("WEAKKEYS_REMOTE_WORKERS", base.remote_workers);
  overlay("WEAKKEYS_TELEMETRY_INTERVAL_MS", base.telemetry_interval_ms, 0);
  overlay("WEAKKEYS_FLEET_TRACE", base.fleet_trace_path);

  // Observability. PROFILE_HZ <= 0 means off.
  overlay("WEAKKEYS_TRACE", base.trace_path);
  overlay("WEAKKEYS_PROFILE_HZ", base.profile_hz, -kHuge, kHuge);
  overlay("WEAKKEYS_PROFILE_OUT", base.profile_out);

  // Out-of-core spill.
  overlay("WEAKKEYS_SPILL_DIR", base.spill_dir);
  overlay("WEAKKEYS_SPILL_THRESHOLD_MB", base.spill_threshold_mb, 0, kMaxMiB);
  overlay("WEAKKEYS_SPILL_RAM_FALLBACK_MB", base.spill_ram_fallback_mb, 0,
          kMaxMiB);
  return base;
}

StudyConfig StudyConfig::from_env() { return from_env(StudyConfig()); }

}  // namespace weakkeys::core

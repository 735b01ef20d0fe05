// gcd_worker: one cluster worker process. Normally spawned by
// cluster::ProcessCoordinator; with --connect it instead dials out to a
// listening coordinator as a *remote* worker (same protocol, nobody forked
// it). Either way it receives streamed subset data and task assignments
// over the framed protocol and ships back verified-upstream divisor claims
// until told to shut down.
//
// Usage:
//   gcd_worker --port P --worker-id W            (spawned, loopback)
//   gcd_worker --connect HOST:PORT --worker-id W (dial-out remote worker)
//              [--address 127.0.0.1] [--connect-timeout-ms 10000]
//              [--seed S --frame-drop P --frame-garble P --frame-delay P
//               --frame-delay-ms MS]
//              [--conn-disconnect P --conn-partition P --conn-half-open P
//               --conn-drip P --conn-partition-ms MS --conn-drip-ms MS]
//              [--telemetry-interval-ms MS | --no-telemetry]
//              [--profile HZ [--profile-out PATH]]
//              [--spill-dir DIR [--spill-threshold-mb N]]
//
// The --frame-* / --conn-* flags enable deterministic fault injection on
// this worker's *outbound* link (chaos tests); the coordinator injects its
// own side. Every setting arrives as a flag: a spawning coordinator forwards
// its profiler and spill settings on the command line, and the worker reads
// no environment. --profile without --profile-out keeps the profile in the
// worker's metrics only. Link loss needs no flag: the
// worker redials into its session for the grace window the coordinator
// names in its HelloAck, so a remote worker matches the coordinator's
// timing without being told.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cluster/worker.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--port P | --connect HOST:PORT) --worker-id W\n"
      "  [--address A] [--connect-timeout-ms MS]\n"
      "  [--telemetry-interval-ms MS] [--no-telemetry]\n"
      "  [--profile HZ] [--profile-out PATH]\n"
      "  [--spill-dir DIR] [--spill-threshold-mb N]\n"
      "  [--seed S] [--frame-drop P] [--frame-garble P] [--frame-delay P]\n"
      "  [--frame-delay-ms MS] [--conn-disconnect P] [--conn-partition P]\n"
      "  [--conn-half-open P] [--conn-drip P] [--conn-partition-ms MS]\n"
      "  [--conn-drip-ms MS]\n",
      argv0);
  return 64;  // EX_USAGE
}

}  // namespace

int main(int argc, char** argv) {
  weakkeys::cluster::WorkerConfig config;
  bool have_port = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (arg == "--port" && (value = next())) {
      config.port = static_cast<std::uint16_t>(std::strtoul(value, nullptr, 10));
      have_port = true;
    } else if (arg == "--connect" && (value = next())) {
      // HOST:PORT in one flag — the dial-out remote-worker mode.
      const std::string target = value;
      const std::size_t colon = target.rfind(':');
      if (colon == std::string::npos || colon + 1 >= target.size()) {
        return usage(argv[0]);
      }
      config.coordinator_address = target.substr(0, colon);
      config.port = static_cast<std::uint16_t>(
          std::strtoul(target.c_str() + colon + 1, nullptr, 10));
      have_port = true;
    } else if (arg == "--worker-id" && (value = next())) {
      config.worker_id =
          static_cast<std::uint32_t>(std::strtoul(value, nullptr, 10));
    } else if (arg == "--address" && (value = next())) {
      config.coordinator_address = value;
    } else if (arg == "--connect-timeout-ms" && (value = next())) {
      config.connect_timeout =
          std::chrono::milliseconds(std::strtol(value, nullptr, 10));
    } else if (arg == "--telemetry-interval-ms" && (value = next())) {
      config.telemetry_interval =
          std::chrono::milliseconds(std::strtol(value, nullptr, 10));
    } else if (arg == "--no-telemetry") {
      config.telemetry_interval = std::chrono::milliseconds(0);
    } else if (arg == "--profile" && (value = next())) {
      config.profile_hz = std::strtod(value, nullptr);
    } else if (arg == "--profile-out" && (value = next())) {
      config.profile_out = value;
    } else if (arg == "--spill-dir" && (value = next())) {
      config.spill_dir = value;
    } else if (arg == "--spill-threshold-mb" && (value = next())) {
      config.spill_threshold_mb = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seed" && (value = next())) {
      config.faults.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--frame-drop" && (value = next())) {
      config.faults.frame_drop_probability = std::strtod(value, nullptr);
    } else if (arg == "--frame-garble" && (value = next())) {
      config.faults.frame_garble_probability = std::strtod(value, nullptr);
    } else if (arg == "--frame-delay" && (value = next())) {
      config.faults.frame_delay_probability = std::strtod(value, nullptr);
    } else if (arg == "--frame-delay-ms" && (value = next())) {
      config.faults.frame_delay_ms =
          static_cast<std::uint32_t>(std::strtoul(value, nullptr, 10));
    } else if (arg == "--conn-disconnect" && (value = next())) {
      config.faults.conn_disconnect_probability = std::strtod(value, nullptr);
    } else if (arg == "--conn-partition" && (value = next())) {
      config.faults.conn_partition_probability = std::strtod(value, nullptr);
    } else if (arg == "--conn-half-open" && (value = next())) {
      config.faults.conn_half_open_probability = std::strtod(value, nullptr);
    } else if (arg == "--conn-drip" && (value = next())) {
      config.faults.conn_slow_drip_probability = std::strtod(value, nullptr);
    } else if (arg == "--conn-partition-ms" && (value = next())) {
      config.faults.conn_partition_ms =
          static_cast<std::uint32_t>(std::strtoul(value, nullptr, 10));
    } else if (arg == "--conn-drip-ms" && (value = next())) {
      config.faults.conn_drip_delay_ms =
          static_cast<std::uint32_t>(std::strtoul(value, nullptr, 10));
    } else if (arg == "--fault-crash" && (value = next())) {
      config.faults.crash_probability = std::strtod(value, nullptr);
    } else if (arg == "--fault-straggle" && (value = next())) {
      config.faults.straggle_probability = std::strtod(value, nullptr);
    } else if (arg == "--fault-corrupt" && (value = next())) {
      config.faults.corrupt_probability = std::strtod(value, nullptr);
    } else if (arg == "--straggle-ms" && (value = next())) {
      config.straggle_sleep =
          std::chrono::milliseconds(std::strtol(value, nullptr, 10));
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_port) return usage(argv[0]);

  config.log = [](const std::string& line) {
    std::fprintf(stderr, "gcd_worker: %s\n", line.c_str());
  };
  return weakkeys::cluster::run_worker(config);
}

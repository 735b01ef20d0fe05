// gcd_coordinator: run the multi-process batch-GCD cluster from the
// command line — the operator-facing face of cluster::batch_gcd_cluster().
//
// Two modes over the same deterministic corpus (--corpus-seed/--corpus-count
// regenerate bit-identical moduli in every process):
//
//   --reference           run single-process batch_gcd() and print the
//                         vulnerable set; the ground truth a cluster run
//                         must reproduce byte-for-byte
//   (default)             coordinate a cluster: fork local workers and/or
//                         listen for remote gcd_worker --connect dial-ins,
//                         then print the vulnerable set in the same format
//
// The CI remote-chaos job diffs the two outputs under connection faults and
// worker kills — the paper's core claim (the vulnerable set is a property
// of the corpus, not of the execution) as a shell pipeline.
//
// Every setting is a flag; the tool reads no environment. --profile and
// --profile-out cover this process and every worker it spawns (worker W
// writes <profile-out>.worker<W>), like the spill flags. --metrics writes
// this process's metrics registry as JSON when the run ends, in either
// mode: the spill.* counters of a --reference run, or the cluster.* and
// fleet.* metrics (the workers' counters fanned in) of a cluster run.
// Every worker link is a session: a lost link is held for the heartbeat
// silence budget (1 s at the defaults) while the worker dials back, and a
// local worker whose process exited is respawned at once. Remote workers
// learn the grace from the handshake, so neither side has a flag for it.
//
// Usage:
//   gcd_coordinator --reference --corpus-seed S --corpus-count N
//   gcd_coordinator [--corpus-seed S] [--corpus-count N] [--subsets K]
//                   [--workers W] [--worker-binary PATH]
//                   [--remote-workers R] [--bind ADDR] [--port P]
//                   [--port-file PATH] [--chunk-bytes B] [--window CHUNKS]
//                   [--task-timeout-ms MS] [--spawn-timeout-ms MS]
//                   [--restart-budget N] [--checkpoint PATH] [--quiet]
//                   [--fleet-trace PATH] [--telemetry-interval-ms MS]
//                   [--profile HZ] [--profile-out PATH] [--metrics PATH]
//                   [--spill-dir DIR] [--spill-threshold-mb N]
//                   [--storage-seed S]
//                   [--storage-short-write P] [--storage-fsync-fail P]
//                   [--storage-bit-flip P] [--storage-enospc P]
//                   [--storage-slow P]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "batchgcd/batch_gcd.hpp"
#include "cluster/process_coordinator.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "rng/prng_source.hpp"
#include "rsa/keygen.hpp"
#include "util/atomic_file.hpp"

namespace {

using weakkeys::bn::BigInt;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--reference] [--corpus-seed S] [--corpus-count N]\n"
      "  [--subsets K] [--workers W] [--worker-binary PATH]\n"
      "  [--remote-workers R] [--bind ADDR] [--port P] [--port-file PATH]\n"
      "  [--chunk-bytes B] [--window CHUNKS]\n"
      "  [--task-timeout-ms MS] [--spawn-timeout-ms MS]\n"
      "  [--restart-budget N] [--checkpoint PATH] [--quiet]\n"
      "  [--fleet-trace PATH] [--telemetry-interval-ms MS]\n"
      "  [--profile HZ] [--profile-out PATH] [--metrics PATH]\n"
      "  [--spill-dir DIR] [--spill-threshold-mb N]\n"
      "  [--storage-seed S] [--storage-short-write P] [--storage-fsync-fail P]\n"
      "  [--storage-bit-flip P] [--storage-enospc P] [--storage-slow P]\n",
      argv0);
  return 64;  // EX_USAGE
}

/// Same planted-structure corpus as the test suite: healthy keys plus
/// shared-prime pairs, a triple star, and a duplicated modulus. Seeded, so
/// --reference and cluster runs (even on other machines) see identical
/// moduli.
std::vector<BigInt> make_corpus(std::size_t healthy, std::uint64_t seed) {
  namespace rsa = weakkeys::rsa;
  std::vector<BigInt> moduli;
  weakkeys::rng::PrngRandomSource rng(seed);
  rsa::KeygenOptions opts;
  opts.modulus_bits = 128;
  opts.style = rsa::PrimeStyle::kPlain;
  opts.miller_rabin_rounds = 8;
  for (std::size_t i = 0; i < healthy; ++i) {
    moduli.push_back(rsa::generate_key(rng, opts).pub.n);
  }
  std::vector<BigInt> p;
  for (int i = 0; i < 12; ++i) {
    p.push_back(rsa::generate_prime(rng, 64, opts));
  }
  moduli.push_back(p[0] * p[1]);  // pair sharing p[0]
  moduli.push_back(p[0] * p[2]);
  moduli.push_back(p[3] * p[4]);  // star of three sharing p[3]
  moduli.push_back(p[3] * p[5]);
  moduli.push_back(p[3] * p[6]);
  moduli.push_back(p[7] * p[8]);  // duplicate pair
  moduli.push_back(p[7] * p[8]);
  return moduli;
}

/// The canonical output both modes share: one line per vulnerable modulus,
/// index and nontrivial divisor. diff(1)-able across engines.
void print_vulnerable(const std::vector<BigInt>& divisors) {
  const BigInt one(1);
  for (std::size_t i = 0; i < divisors.size(); ++i) {
    if (divisors[i] > one) {
      std::printf("%zu %s\n", i, divisors[i].to_hex().c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool reference = false;
  bool quiet = false;
  std::uint64_t corpus_seed = 1;
  std::size_t corpus_count = 40;
  std::string port_file;
  double profile_hz = 0;
  std::string profile_out;
  std::string metrics_path;
  std::string spill_dir;
  std::uint64_t spill_threshold_mb = 0;  // 0 = always spill when dir set
  weakkeys::util::FaultConfig storage_faults;
  weakkeys::cluster::ClusterConfig config;
  config.workers = 2;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (arg == "--reference") {
      reference = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--corpus-seed" && (value = next())) {
      corpus_seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--corpus-count" && (value = next())) {
      corpus_count = std::strtoull(value, nullptr, 10);
    } else if (arg == "--subsets" && (value = next())) {
      config.subsets = std::strtoull(value, nullptr, 10);
    } else if (arg == "--workers" && (value = next())) {
      config.workers = std::strtoull(value, nullptr, 10);
    } else if (arg == "--worker-binary" && (value = next())) {
      config.worker_binary = value;
    } else if (arg == "--remote-workers" && (value = next())) {
      config.remote_workers = std::strtoull(value, nullptr, 10);
    } else if (arg == "--bind" && (value = next())) {
      config.bind_address = value;
    } else if (arg == "--port" && (value = next())) {
      config.port =
          static_cast<std::uint16_t>(std::strtoul(value, nullptr, 10));
    } else if (arg == "--port-file" && (value = next())) {
      port_file = value;
    } else if (arg == "--chunk-bytes" && (value = next())) {
      config.stream_chunk_bytes = std::strtoull(value, nullptr, 10);
    } else if (arg == "--window" && (value = next())) {
      config.stream_window_chunks = std::strtoull(value, nullptr, 10);
    } else if (arg == "--task-timeout-ms" && (value = next())) {
      config.task_timeout =
          std::chrono::milliseconds(std::strtol(value, nullptr, 10));
    } else if (arg == "--spawn-timeout-ms" && (value = next())) {
      config.spawn_timeout =
          std::chrono::milliseconds(std::strtol(value, nullptr, 10));
    } else if (arg == "--restart-budget" && (value = next())) {
      config.restart_budget = std::strtoull(value, nullptr, 10);
    } else if (arg == "--checkpoint" && (value = next())) {
      config.checkpoint_path = value;
    } else if (arg == "--fleet-trace" && (value = next())) {
      // Fleet-merged Chrome trace (assign spans + clock-rebased worker task
      // spans); the fleet's metrics go to --metrics.
      config.fleet_trace_path = value;
    } else if (arg == "--telemetry-interval-ms" && (value = next())) {
      config.telemetry_interval =
          std::chrono::milliseconds(std::strtol(value, nullptr, 10));
    } else if (arg == "--profile" && (value = next())) {
      profile_hz = std::strtod(value, nullptr);
    } else if (arg == "--profile-out" && (value = next())) {
      profile_out = value;
    } else if (arg == "--metrics" && (value = next())) {
      metrics_path = value;
    } else if (arg == "--spill-dir" && (value = next())) {
      spill_dir = value;
    } else if (arg == "--spill-threshold-mb" && (value = next())) {
      spill_threshold_mb = std::strtoull(value, nullptr, 10);
    } else if (arg == "--storage-seed" && (value = next())) {
      storage_faults.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--storage-short-write" && (value = next())) {
      storage_faults.storage_short_write_probability =
          std::strtod(value, nullptr);
    } else if (arg == "--storage-fsync-fail" && (value = next())) {
      storage_faults.storage_fsync_fail_probability =
          std::strtod(value, nullptr);
    } else if (arg == "--storage-bit-flip" && (value = next())) {
      storage_faults.storage_bit_flip_probability =
          std::strtod(value, nullptr);
    } else if (arg == "--storage-enospc" && (value = next())) {
      storage_faults.storage_enospc_probability = std::strtod(value, nullptr);
    } else if (arg == "--storage-slow" && (value = next())) {
      storage_faults.storage_slow_probability = std::strtod(value, nullptr);
    } else {
      return usage(argv[0]);
    }
  }

  if (profile_hz > 0 && profile_out.empty()) {
    profile_out = "PROFILE_gcd_coordinator.folded";
  }
  std::unique_ptr<weakkeys::obs::Profiler> profiler;
  if (profile_hz > 0) {
    weakkeys::obs::ProfilerConfig prof_config;
    prof_config.hz = profile_hz;
    prof_config.out_path = profile_out;
    prof_config.writer = [](const std::string& path,
                            const std::string& content) {
      try {
        weakkeys::util::atomic_write_file(path, content);
        return true;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "gcd_coordinator: %s\n", e.what());
        return false;
      }
    };
    profiler = std::make_unique<weakkeys::obs::Profiler>(
        std::move(prof_config));
    profiler->start();
  }

  const std::vector<BigInt> moduli = make_corpus(corpus_count, corpus_seed);

  // Metrics only: this process's spans would be held in memory unread.
  weakkeys::obs::Telemetry telemetry(/*tracing_enabled=*/false);
  const auto write_metrics = [&] {
    if (metrics_path.empty()) return;
    try {
      weakkeys::util::atomic_write_file(metrics_path,
                                        telemetry.metrics().to_json());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gcd_coordinator: %s\n", e.what());
    }
  };

  if (reference) {
    // Single-process ground truth; with --spill-dir it runs out-of-core
    // (the disk-chaos CI path: deterministic storage faults via the
    // --storage-* schedule, SIGKILL/resume via the generation-stamped
    // level files, spill.* counters dumped for invariant checks).
    weakkeys::util::FaultInjector storage_injector(storage_faults);
    weakkeys::batchgcd::TreeStorage storage;
    storage.spill_dir = spill_dir;
    storage.spill_threshold_bytes = spill_threshold_mb * 1024 * 1024;
    storage.registry = &telemetry.metrics();
    if (storage_faults.any_storage_faults()) {
      storage.injector = &storage_injector;
    }
    try {
      print_vulnerable(
          weakkeys::batchgcd::batch_gcd(
              moduli, nullptr, storage.enabled() ? &storage : nullptr)
              .divisors);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gcd_coordinator: %s\n", e.what());
      if (profiler) profiler->stop();
      return 1;
    }
    write_metrics();
    if (profiler) profiler->stop();
    return 0;
  }

  // Cluster mode: the workers build the trees, so they get the spill knobs;
  // the profiler covers them as well as this process.
  config.spill_dir = spill_dir;
  config.spill_threshold_mb = static_cast<std::size_t>(spill_threshold_mb);
  config.profile_hz = profile_hz;
  config.profile_out = profile_out;
  config.telemetry = &telemetry;

  if (!quiet) {
    config.log = [](const std::string& line) {
      std::fprintf(stderr, "gcd_coordinator: %s\n", line.c_str());
    };
  }
  if (!port_file.empty()) {
    config.on_listen = [&port_file](std::uint16_t port) {
      std::FILE* f = std::fopen((port_file + ".part").c_str(), "w");
      if (!f) return;
      std::fprintf(f, "%u\n", port);
      std::fclose(f);
      // rename so readers polling the path never see a partial write
      std::rename((port_file + ".part").c_str(), port_file.c_str());
    };
  }

  try {
    weakkeys::cluster::ClusterStats stats;
    const auto result =
        weakkeys::cluster::batch_gcd_cluster(moduli, config, &stats);
    if (profiler) {
      profiler->stop();
      std::fprintf(stderr, "gcd_coordinator: profiler wrote %s (%llu samples)\n",
                   profile_out.c_str(),
                   static_cast<unsigned long long>(profiler->samples()));
    }
    write_metrics();
    print_vulnerable(result.divisors);
    std::fprintf(stderr,
                 "gcd_coordinator: done (%zu tasks, %zu reconnects, "
                 "%zu duplicate results, %llu chunks, %llu stream resumes)\n",
                 stats.tasks_executed + stats.tasks_resumed, stats.reconnects,
                 stats.duplicate_results,
                 static_cast<unsigned long long>(stats.stream_chunks_sent),
                 static_cast<unsigned long long>(stats.stream_resumes));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gcd_coordinator: %s\n", e.what());
    return 1;
  }
}

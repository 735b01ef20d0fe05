// Multi-process cluster benchmarks: the worker-count scaling curve for the
// TCP batch-GCD cluster (1/2/4/8 local worker processes over the same
// corpus) plus the recovery overhead when workers are being SIGKILLed under
// it. The scaling numbers are the CI gate for the process-coordinator
// path: benchdiff fails the build when a change regresses the curve.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <vector>

#include "bench_json.hpp"
#include "cluster/process_coordinator.hpp"
#include "obs/telemetry.hpp"
#include "rng/prng_source.hpp"
#include "rsa/keygen.hpp"
#include "util/fault_injector.hpp"

namespace {

using namespace weakkeys;
using bn::BigInt;

constexpr std::size_t kSubsets = 8;

const std::vector<BigInt>& corpus(std::size_t count) {
  static std::map<std::size_t, std::vector<BigInt>> cache;
  auto& moduli = cache[count];
  if (moduli.empty()) {
    rng::PrngRandomSource rng(1234);
    rsa::KeygenOptions opts;
    opts.modulus_bits = 256;
    opts.style = rsa::PrimeStyle::kPlain;
    opts.sieve_primes = 256;  // cheap synthetic corpus
    opts.miller_rabin_rounds = 4;
    moduli.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      moduli.push_back(rsa::generate_key(rng, opts).pub.n);
    }
  }
  return moduli;
}

obs::Telemetry& bench_telemetry() {
  static obs::Telemetry telemetry(/*tracing_enabled=*/false);
  return telemetry;
}

cluster::ClusterConfig base_config(std::size_t workers) {
  cluster::ClusterConfig config;
  config.subsets = kSubsets;
  config.workers = workers;
  config.worker_binary = WEAKKEYS_GCD_WORKER_BIN;
  config.retry.base = std::chrono::milliseconds(1);
  config.retry.cap = std::chrono::milliseconds(8);
  config.task_timeout = std::chrono::milliseconds(10000);
  config.heartbeat_interval = std::chrono::milliseconds(50);
  config.telemetry = &bench_telemetry();
  return config;
}

/// The scaling curve: same corpus, 1/2/4/8 worker processes. Spawn,
/// handshake, and subset/product distribution are all inside the timed
/// region — that end-to-end cost is what a deployment actually pays.
void BM_ClusterScaling(benchmark::State& state) {
  const auto& moduli = corpus(512);
  const auto workers = static_cast<std::size_t>(state.range(0));
  cluster::ClusterStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cluster::batch_gcd_cluster(moduli, base_config(workers), &stats));
  }
  state.counters["tasks"] = static_cast<double>(stats.tasks_executed);
  state.counters["frames_sent"] = static_cast<double>(stats.frames_sent);
}
BENCHMARK(BM_ClusterScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Recovery overhead: the coordinator SIGKILLs workers at a 5/15% per-task
/// rate and pays detection + respawn + reassignment for each. Compare
/// against BM_ClusterScaling/4 for the fault tax.
void BM_ClusterUnderSigkill(benchmark::State& state) {
  const auto& moduli = corpus(512);
  const double rate = static_cast<double>(state.range(0)) / 100.0;
  util::FaultConfig faults;
  faults.seed = 4242;
  faults.sigkill_probability = rate;
  const util::FaultInjector injector(faults);
  auto config = base_config(4);
  config.injector = &injector;
  config.task_timeout = std::chrono::milliseconds(2000);
  config.restart_budget = 1u << 20;  // never degrade: measure pure recovery
  cluster::ClusterStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cluster::batch_gcd_cluster(moduli, config, &stats));
  }
  state.counters["respawns"] = static_cast<double>(stats.respawns);
  state.counters["reassigned"] = static_cast<double>(stats.tasks_reassigned);
}
BENCHMARK(BM_ClusterUnderSigkill)
    ->Arg(5)
    ->Arg(15)
    ->Unit(benchmark::kMillisecond);

/// Reconnect tax: links are abruptly severed at a 2/5% per-frame rate, but
/// sessions survive — the worker dials back in, replays its outbox, and
/// resumes any chunked transfer mid-stream instead of being respawned and
/// re-shipped its data. Compare against BM_ClusterScaling/4 for the price
/// of a healed disconnect versus BM_ClusterUnderSigkill for a full death.
void BM_ClusterReconnectTax(benchmark::State& state) {
  const auto& moduli = corpus(512);
  const double rate = static_cast<double>(state.range(0)) / 100.0;
  util::FaultConfig faults;
  faults.seed = 4243;
  faults.conn_disconnect_probability = rate;
  const util::FaultInjector injector(faults);
  auto config = base_config(4);
  config.injector = &injector;
  config.task_timeout = std::chrono::milliseconds(4000);
  config.restart_budget = 1u << 20;
  cluster::ClusterStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cluster::batch_gcd_cluster(moduli, config, &stats));
  }
  state.counters["reconnects"] = static_cast<double>(stats.reconnects);
  state.counters["stream_resumes"] = static_cast<double>(stats.stream_resumes);
  state.counters["respawns"] = static_cast<double>(stats.respawns);
}
BENCHMARK(BM_ClusterReconnectTax)
    ->Arg(2)
    ->Arg(5)
    ->Unit(benchmark::kMillisecond);

/// Telemetry ablation: the same 4-worker run with the fleet observability
/// plane fully off (workers spawned with --no-telemetry, no trace context)
/// versus fully on (50 ms export cadence, trace propagation, and the merged
/// fleet trace written at the end). /1 against /0 is the tentpole's
/// overhead budget: export + merge must stay within a few percent.
void BM_ClusterTelemetry(benchmark::State& state) {
  const auto& moduli = corpus(512);
  const bool enabled = state.range(0) != 0;
  auto config = base_config(4);
  config.telemetry_interval = std::chrono::milliseconds(enabled ? 50 : 0);
  const std::string trace_path = "bench_fleet_trace.json";
  if (enabled) config.fleet_trace_path = trace_path;
  cluster::ClusterStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cluster::batch_gcd_cluster(moduli, config, &stats));
  }
  state.counters["snapshots"] = static_cast<double>(stats.telemetry_snapshots);
  state.counters["spans"] = static_cast<double>(stats.telemetry_spans);
  if (enabled) {
    std::remove(trace_path.c_str());
    std::remove((trace_path + ".metrics.json").c_str());
  }
}
BENCHMARK(BM_ClusterTelemetry)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return weakkeys::bench::run_benchmarks_with_json("perf_cluster", argc, argv,
                                                   &bench_telemetry());
}

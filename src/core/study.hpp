// The end-to-end study pipeline — the library's primary public API.
//
// Study reproduces the paper's methodology section for section:
//   1. obtain six years of scan data (simulate, or load the cached corpus);
//   2. reconstruct chains and drop Rapid7 intermediates (Section 3.1);
//   3. extract all distinct RSA moduli across protocols and run the
//      distributed batch GCD (Section 3.2);
//   4. classify divisors (shared prime / duplicate / bit error), splitting
//      both-primes-shared moduli with a pairwise second pass;
//   5. fingerprint implementations: subject rules, degenerate-generator
//      cliques, shared-prime-pool extrapolation, OpenSSL prime fingerprint,
//      fixed-key MITM detection (Section 3.3).
//
// Everything the table/figure binaries need hangs off the accessors.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/timeseries.hpp"
#include "batchgcd/batch_gcd.hpp"
#include "batchgcd/distributed.hpp"
#include "cluster/process_coordinator.hpp"
#include "fingerprint/divisor_class.hpp"
#include "fingerprint/ibm_clique.hpp"
#include "fingerprint/mitm_detector.hpp"
#include "fingerprint/openssl_fingerprint.hpp"
#include "fingerprint/prime_pools.hpp"
#include "core/ingest.hpp"
#include "core/scan_store.hpp"
#include "fingerprint/subject_rules.hpp"
#include "netsim/internet.hpp"
#include "netsim/noise.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "util/cancellation.hpp"

namespace weakkeys::util {
class BinaryWriter;
}

namespace weakkeys::core {

/// Every run setting of a Study, as resolved values: a Study reads nothing
/// else, and from_env() is the one reader of the `WEAKKEYS_*` environment.
struct StudyConfig {
  /// `base` with every set `WEAKKEYS_*` variable overlaid (README has the
  /// table; an empty numeric variable counts as unset). Throws
  /// std::invalid_argument naming the variable for a malformed or
  /// out-of-range number. The no-argument form overlays the defaults.
  static StudyConfig from_env(StudyConfig base);
  static StudyConfig from_env();

  netsim::SimConfig sim;
  /// Batch-GCD subset count (the paper used k=16 on 22 machines).
  std::size_t batch_gcd_subsets = 4;
  /// Threads of the one pool run() builds (0 = hardware). It serves both
  /// the simulation's keygen batches and the in-process batch GCD.
  std::size_t threads = 0;
  /// Dataset cache path; empty disables caching. A stale or mismatched
  /// cache is silently rebuilt. Rerunning with the same path resumes: the
  /// corpus cache, `<cache_path>.factors` and the `<cache_path>.gcdckpt`
  /// task journal each skip the work an earlier run finished.
  std::string cache_path = "weakkeys_corpus.cache";
  /// Fault injection (all-zero = none): the task, process, frame and
  /// connection tiers apply to the cluster path, the storage tier to spill
  /// I/O on either path.
  util::FaultConfig faults;
  /// Route the factoring stage through the multi-process TCP cluster
  /// (batch_gcd_cluster): fork/exec this many gcd_worker processes and
  /// supervise them with heartbeats, per-task timeouts, and respawn.
  /// 0 keeps factoring in-process (batch_gcd_distributed on a thread pool)
  /// unless remote_workers is set.
  /// Either path journals completed remainder-tree tasks to
  /// `cache_path + ".gcdckpt"` when cache_path is set, in one format, so an
  /// interrupted factoring run re-executes only the unfinished tasks —
  /// under either engine.
  std::size_t worker_processes = 0;
  /// Path to the gcd_worker binary for the cluster path; required (and
  /// validated executable) when worker_processes > 0.
  std::string worker_binary;
  /// Listener port for worker connections, 0 for kernel-assigned.
  int worker_port = 0;
  /// Extra dial-in slots for remote gcd_worker --connect processes the
  /// study does not spawn. The cluster path activates when local + remote
  /// workers > 0.
  std::size_t remote_workers = 0;
  /// Telemetry export cadence (ms) for the cluster path: each worker
  /// ships a TelemetrySnapshot (metrics + task spans + RSS/CPU) at most
  /// this often, fanned into fleet.worker.<id>.* / fleet.* metrics on the
  /// study registry (visible in the trace's metrics snapshot).
  /// 0 disables worker export.
  int telemetry_interval_ms = static_cast<int>(
      cluster::ClusterConfig{}.telemetry_interval.count());
  /// Fleet-merged Chrome trace path for the cluster path: coordinator
  /// assign spans plus clock-rebased worker task spans on one timeline,
  /// written when the factoring stage ends. The fleet's metrics land in
  /// the study registry (the trace's metrics snapshot). Empty disables the
  /// merged trace (metric fan-in is unaffected).
  std::string fleet_trace_path;
  /// Scan-noise injection: appends corrupted records to the scanned corpus
  /// after simulation or cache load (the cache always stores the clean
  /// corpus). All-zero = pristine. The ingest quarantine pass absorbs the
  /// damage; results on the clean subset are invariant under any setting.
  netsim::NoiseConfig noise;
  /// Progress sink (the simulation and factoring take a while at full
  /// scale): every progress and warning line goes here. Null drops them;
  /// the trace, metrics and profile files are written either way.
  std::function<void(const std::string&)> log;
  /// Write a Chrome trace_event JSON of the run here after run() finishes
  /// (plus a metrics snapshot at `<trace_path>.metrics.json`). Empty
  /// disables the dump (spans and metrics are collected either way — see
  /// Study::telemetry()). Load the trace in about://tracing or perfetto.
  std::string trace_path;
  /// Sampling-profiler cadence in Hz (DESIGN.md §5k): run() starts an
  /// obs::Profiler snapshotting every thread's span/kernel stack and
  /// feeding `profiler.*` rollups into the registry (visible in the
  /// trace's metrics snapshot); <= 0 disables profiling. On the cluster
  /// path every spawned worker samples at the same rate.
  double profile_hz = 0;
  /// Collapsed-stack (flamegraph) output path, written atomically when
  /// telemetry flushes; spawned workers write `<profile_out>.worker<id>`.
  /// Empty keeps the profile in metrics only.
  std::string profile_out;
  /// Out-of-core batch GCD: directory for product-tree level spills
  /// (DESIGN.md §5l). When the spill policy fires, each subset's product
  /// tree keeps at most two levels resident and streams the rest through
  /// CRC-framed level files here, bounding factoring memory at corpus
  /// scale. Empty disables spilling. Level files are generation-stamped
  /// with the corpus fingerprint, so a killed run that left them behind
  /// resumes from them.
  std::string spill_dir;
  /// Estimated per-tree bytes at which spilling kicks in, in MiB. 0 spills
  /// every tree (chaos/CI mode). Only meaningful with a spill dir.
  long long spill_threshold_mb = 256;
  /// Last-rung budget for the spill degradation ladder, in MiB: when
  /// storage keeps failing, levels are pinned in RAM up to this budget
  /// before the run cancels with util::StorageError. 0 = unlimited.
  long long spill_ram_fallback_mb = 0;
};

/// One factored modulus with everything later stages need.
struct FactorRecord {
  bn::BigInt n;
  bn::BigInt p;
  bn::BigInt q;
  fingerprint::DivisorClass divisor_class;
  /// n's modulus id in the run's certificate index (Study::facts().index).
  std::uint32_t modulus = netsim::CertificateIndex::kNone;
};

struct FactorStats {
  std::size_t distinct_moduli = 0;
  std::size_t nontrivial_divisors = 0;
  std::size_t shared_prime = 0;   ///< factored via a single shared prime
  std::size_t full_modulus = 0;   ///< both primes shared (clique members)
  std::size_t bit_errors = 0;     ///< smooth divisors: corrupted moduli
  std::size_t other = 0;
  std::size_t second_pass_factored = 0;  ///< full-modulus cases split pairwise
};

/// What the divisor pass of a factoring run found.
struct DivisorPass {
  /// Shared-prime splits, in modulus-index order.
  std::vector<FactorRecord> factored;
  /// Indices of the moduli whose divisor is the whole modulus.
  std::vector<std::size_t> full_modulus;
  /// The nontrivial-divisor and per-class counts (the rest stay zero).
  FactorStats counts;
};

/// Classifies each nontrivial `divisors[i]` of `moduli[i]` and splits the
/// shared-prime moduli, on `pool` when one is given (polling `cancel`),
/// then commits the results in modulus-index order, so the pass does not
/// depend on the pool. A record's `modulus` is its index i, which is its
/// modulus id when `moduli` is distinct_moduli().
DivisorPass classify_divisors(const std::vector<bn::BigInt>& moduli,
                              const std::vector<bn::BigInt>& divisors,
                              util::ThreadPool* pool = nullptr,
                              const util::CancellationToken* cancel = nullptr);

class Study {
 public:
  explicit Study(StudyConfig config = {});
  ~Study();

  /// Runs the full pipeline. Idempotent once it has completed. Returns
  /// when the run is done, throws util::Cancelled after cancel(), and
  /// rethrows any other failure; on every exit it first closes the
  /// observability artifacts (the trace and metrics files, the profile). A
  /// rerun with the same cache_path, in this process or after the process
  /// was killed, skips whatever the per-stage caches and the task journal
  /// already hold.
  void run();

  /// Trips the run's cancellation token from any thread. Poll sites at
  /// batch granularity (simulated month, scan snapshot, remainder-tree
  /// task) pick it up, so cancel latency is bounded by one batch.
  void cancel(const std::string& reason);

  // -- Data ------------------------------------------------------------
  /// Records exactly as scanned (including Rapid7 intermediates).
  [[nodiscard]] const netsim::ScanDataset& raw_dataset() const;
  /// After chain reconstruction (this is what all analyses use).
  [[nodiscard]] const netsim::ScanDataset& dataset() const;
  /// Quarantine accounting from the ingest/validation pass (all records
  /// kept and zero quarantined on a pristine corpus).
  [[nodiscard]] const IngestStats& ingest_stats() const;
  /// What apply_noise injected this run (all-zero when noise is off).
  [[nodiscard]] const netsim::NoiseSummary& noise_summary() const;
  /// Outcome of the corpus-cache probe (kMissing when caching is disabled).
  [[nodiscard]] DatasetLoadStatus dataset_cache_status() const;

  // -- Factoring ---------------------------------------------------------
  [[nodiscard]] const FactorStats& factor_stats() const;
  /// In-process factoring telemetry (tasks, tasks resumed from the
  /// journal, tree sizes). All zero when the cluster ran or the factor
  /// cache was hit.
  [[nodiscard]] const batchgcd::DistributedStats& distributed_stats() const;
  /// Process-cluster telemetry (respawns, heartbeat deaths, quarantined
  /// results, frame loss, ...). All zero unless the factoring stage ran on
  /// the multi-process cluster (worker_processes / remote_workers).
  [[nodiscard]] const cluster::ClusterStats& cluster_stats() const {
    return cluster_stats_;
  }
  [[nodiscard]] const std::vector<FactorRecord>& factored() const;
  /// Moduli counted as vulnerable: genuinely weak keys (shared-prime and
  /// clique factorizations; bit errors excluded, as in the paper).
  [[nodiscard]] const analysis::VulnerableSet& vulnerable() const;

  // -- Fingerprinting ------------------------------------------------------
  /// Degenerate-generator cliques found among the factored moduli.
  [[nodiscard]] const std::vector<fingerprint::PrimeClique>& cliques() const;
  /// Per-vendor recovered-prime pools (after subject labeling).
  [[nodiscard]] const fingerprint::PrimePools& prime_pools() const;
  /// Fixed-key MITM candidates (Internet Rimon).
  [[nodiscard]] const std::vector<fingerprint::MitmCandidate>& mitm_candidates() const;

  /// Each certificate of dataset() once, with its label (clique, then
  /// subject rules, then shared-prime extrapolation) and vulnerable bit,
  /// and each record's certificate (DESIGN.md §5r).
  [[nodiscard]] const analysis::CertificateFacts& facts() const {
    return facts_;
  }

  /// Vendor -> recovered primes (for Table 5 classification).
  [[nodiscard]] std::map<std::string, std::vector<bn::BigInt>>
  recovered_primes_by_vendor() const;

  /// Convenience: a TimeSeriesBuilder over dataset() and facts().
  [[nodiscard]] analysis::TimeSeriesBuilder series_builder() const;

  // -- Telemetry -----------------------------------------------------------
  /// The run's metrics registry and span tracer.
  /// Live from construction; populated by run(). Metric names and the span
  /// model are documented in DESIGN.md §5e.
  [[nodiscard]] obs::Telemetry& telemetry() { return telemetry_; }
  [[nodiscard]] const obs::Telemetry& telemetry() const { return telemetry_; }

 private:
  void build_dataset(util::ThreadPool& pool);
  // `index` is index_certificates(dataset_), built once per run.
  void factor_moduli(util::ThreadPool& pool,
                     const netsim::CertificateIndex& index);
  // Builds facts_ over `index` last.
  void fingerprint_corpus(util::ThreadPool& pool,
                          netsim::CertificateIndex index);
  // Looks each loaded modulus's id up in `index`.
  bool load_factor_cache(const std::string& path,
                         const netsim::CertificateIndex& index);
  void save_factor_cache(const std::string& path) const;
  void write_factor_cache_payload(util::BinaryWriter& w) const;
  void log(const std::string& message);
  void record_ingest_metrics();
  void record_factor_metrics();
  void start_observability();
  /// Closes the observability artifacts: stops the profiler (writing the
  /// collapsed-stack file), records the process's RSS and CPU time into
  /// the registry, then writes the trace/metrics files if configured.
  /// run() calls it once on each of its exits.
  void flush_telemetry();
  /// Stage boundary: throws util::Cancelled if the token has tripped.
  void begin_stage();

  StudyConfig config_;
  obs::Telemetry telemetry_;
  util::CancellationToken token_;
  // Declared after telemetry_ (it holds a reference into it) so it is
  // destroyed first.
  std::unique_ptr<obs::Profiler> profiler_;
  bool ran_ = false;

  netsim::ScanDataset raw_dataset_;
  netsim::ScanDataset dataset_;
  IngestStats ingest_stats_;
  netsim::NoiseSummary noise_summary_;
  DatasetLoadStatus dataset_cache_status_ = DatasetLoadStatus::kMissing;
  /// Distinct quarantined degenerate moduli, triaged into FactorStats.
  std::vector<bn::BigInt> degenerate_moduli_;

  FactorStats stats_;
  batchgcd::DistributedStats distributed_stats_;
  cluster::ClusterStats cluster_stats_;
  std::vector<FactorRecord> factored_;
  analysis::VulnerableSet vulnerable_;

  fingerprint::SubjectRules subject_rules_;
  std::vector<fingerprint::PrimeClique> cliques_;
  fingerprint::PrimePools pools_;
  /// factored_[i]'s vendor: IBM for a clique member, else its certificates'
  /// one subject vendor, else its extrapolated vendor ("" = none).
  std::vector<std::string> factored_vendor_;
  std::vector<fingerprint::MitmCandidate> mitm_;
  analysis::CertificateFacts facts_;
};

}  // namespace weakkeys::core

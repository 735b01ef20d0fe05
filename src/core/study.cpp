#include "core/study.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "analysis/chains.hpp"
#include "batchgcd/distributed.hpp"
#include "core/ingest.hpp"
#include "core/scan_store.hpp"
#include "netsim/catalog.hpp"
#include "netsim/noise.hpp"
#include "obs/proc_stats.hpp"
#include "util/atomic_file.hpp"
#include "util/binary_io.hpp"
#include "util/thread_pool.hpp"

namespace weakkeys::core {

namespace {
/// Bump when the catalog or simulation semantics change, so stale corpus
/// caches are rebuilt.
constexpr std::uint32_t kCatalogVersion = 4;
constexpr std::uint32_t kFactorMagic = 0x574b4633;  // "WKF3" (adds noise key)

/// DatasetLoadStatus text as a metric-name segment (lowercase, dashes).
std::string metric_segment(std::string s) {
  for (char& c : s) {
    if (c == ' ') c = '-';
  }
  return s;
}

}  // namespace

Study::Study(StudyConfig config)
    : config_(std::move(config)),
      subject_rules_(fingerprint::SubjectRules::standard()) {}

Study::~Study() = default;

void Study::log(const std::string& message) {
  if (config_.log) config_.log(message);
}

void Study::cancel(const std::string& reason) { token_.cancel(reason); }

void Study::begin_stage() { token_.throw_if_cancelled(); }

void Study::run() {
  if (ran_) return;
  try {
    start_observability();
    obs::Span run_span = telemetry_.tracer().span("study.run");
    // One pool for the whole run: simulation keygen, then factoring.
    util::ThreadPool pool(config_.threads, &telemetry_);
    begin_stage();
    build_dataset(pool);
    // One index of dataset_'s certificates serves every pass after ingest.
    obs::Span index_span = telemetry_.tracer().span("study.index_certificates");
    netsim::CertificateIndex index = netsim::index_certificates(dataset_);
    index_span.end();
    begin_stage();
    factor_moduli(pool, index);
    begin_stage();
    fingerprint_corpus(pool, std::move(index));
  } catch (const util::Cancelled&) {
    log("run cancelled: " + token_.reason());
    flush_telemetry();
    throw;
  } catch (...) {
    flush_telemetry();
    throw;
  }
  ran_ = true;
  flush_telemetry();
}

void Study::start_observability() {
  // The sampling profiler (DESIGN.md §5k).
  const double profile_hz = config_.profile_hz;
  if (profile_hz > 0 && !profiler_) {
    obs::ProfilerConfig pc;
    pc.hz = profile_hz;
    pc.out_path = config_.profile_out;
    pc.registry = &telemetry_.metrics();
    pc.writer = [](const std::string& path, const std::string& content) {
      try {
        util::atomic_write_file(path, content);
        return true;
      } catch (const std::exception&) {
        return false;
      }
    };
    profiler_ = std::make_unique<obs::Profiler>(std::move(pc));
    profiler_->start();
    log("profiler sampling at " + std::to_string(profile_hz) + " Hz" +
        (config_.profile_out.empty() ? std::string(" (metrics only)")
                                     : " -> " + config_.profile_out));
  }
}

void Study::flush_telemetry() {
  // Profiler first: its final rollups and the process's RSS/CPU must be
  // in the registry before the metrics file is written.
  if (profiler_) profiler_->stop();  // also writes the collapsed-stack file
  obs::record_proc_self(telemetry_.metrics());
  const std::string& trace = config_.trace_path;
  if (trace.empty()) return;
  if (telemetry_.write_trace_files(trace)) {
    log("telemetry: trace written to " + trace + " (metrics snapshot at " +
        trace + ".metrics.json)");
  } else {
    log("telemetry: failed to write " + trace);
  }
}

void Study::build_dataset(util::ThreadPool& pool) {
  obs::Span stage = telemetry_.tracer().span("study.build_dataset");
  auto& metrics = telemetry_.metrics();
  const StoreKey key{
      config_.sim.seed,
      static_cast<std::uint64_t>(config_.sim.scale * 1e6),
      static_cast<std::uint32_t>(config_.sim.miller_rabin_rounds),
      kCatalogVersion,
  };
  bool have_corpus = false;
  if (!config_.cache_path.empty()) {
    obs::Span probe = telemetry_.tracer().span("study.load_corpus");
    if (auto cached =
            load_dataset(key, config_.cache_path, &dataset_cache_status_)) {
      log("loaded corpus from " + config_.cache_path);
      metrics.counter("cache.corpus.hit").inc();
      raw_dataset_ = std::move(*cached);
      have_corpus = true;
    } else {
      metrics.counter("cache.corpus.miss").inc();
      // Attribute the rebuild reason as its own counter family: silent
      // rebuilds hide both corruption and stale-key bugs.
      metrics
          .counter("cache.corpus.rebuild." +
                   metric_segment(to_string(dataset_cache_status_)))
          .inc();
      if (dataset_cache_status_ != DatasetLoadStatus::kMissing) {
        log("corpus cache unusable (" +
            std::string(to_string(dataset_cache_status_)) + "), rebuilding " +
            config_.cache_path);
      }
    }
  }

  if (!have_corpus) {
    obs::Span simulate = telemetry_.tracer().span("study.simulate");
    log("simulating six years of scans (first run builds the corpus cache)...");
    netsim::SimConfig sim = config_.sim;
    sim.telemetry = &telemetry_;
    sim.cancel = &token_;
    sim.log = [this](const std::string& message) { log("sim: " + message); };
    netsim::Internet internet(netsim::standard_models(config_.sim.scale), sim);
    raw_dataset_ = internet.run(netsim::standard_campaigns(), &pool);
    log("simulated " + std::to_string(raw_dataset_.total_host_records()) +
        " host records");
    if (!config_.cache_path.empty()) {
      obs::Span save = telemetry_.tracer().span("study.save_corpus");
      save_dataset(raw_dataset_, key, config_.cache_path);
      log("corpus cached to " + config_.cache_path);
    }
  }

  // The cache stores the clean corpus; scan noise is layered on afterwards
  // so one cached simulation serves any NoiseConfig.
  if (config_.noise.any()) {
    obs::Span noise = telemetry_.tracer().span("study.apply_noise");
    noise_summary_ = netsim::apply_noise(raw_dataset_, config_.noise);
    metrics.counter("noise.records_injected").inc(noise_summary_.total());
    log("noise: injected " + std::to_string(noise_summary_.total()) +
        " corrupted records into the scanned corpus");
  }

  // Ingest/quarantine: after this pass every record carries a decoded,
  // plausibly well-formed certificate; everything else is accounted for in
  // ingest_stats_ and (for degenerate moduli) rerouted to factor triage.
  obs::Span ingest_span = telemetry_.tracer().span("study.ingest");
  IngestResult ingest = ingest_dataset(raw_dataset_, &token_, &pool);
  ingest_stats_ = std::move(ingest.stats);
  degenerate_moduli_ = std::move(ingest.degenerate_moduli);
  record_ingest_metrics();
  log("ingest: " + ingest_stats_.summary());
  ingest_span.end();

  obs::Span chains = telemetry_.tracer().span("study.exclude_intermediates");
  dataset_ =
      analysis::exclude_intermediates(std::move(ingest.kept), &pool, &token_);
}

/// Mirrors IngestStats into the metrics registry. Counters agree exactly
/// with the stats struct (pinned by the telemetry e2e test): per-reason
/// drops are `ingest.drop.<reason>` using the QuarantineReason names.
void Study::record_ingest_metrics() {
  auto& metrics = telemetry_.metrics();
  metrics.counter("ingest.records_seen").inc(ingest_stats_.records_seen);
  metrics.counter("ingest.records_kept").inc(ingest_stats_.records_kept);
  metrics.counter("ingest.records_quarantined")
      .inc(ingest_stats_.records_quarantined);
  metrics.counter("ingest.raw_records").inc(ingest_stats_.raw_records);
  metrics.counter("ingest.raw_recovered").inc(ingest_stats_.raw_recovered);
  metrics.counter("ingest.degenerate_moduli")
      .inc(ingest_stats_.degenerate_moduli);
  for (std::size_t i = 0; i < kQuarantineReasonCount; ++i) {
    if (ingest_stats_.by_reason[i] == 0) continue;
    metrics
        .counter(std::string("ingest.drop.") +
                 to_string(static_cast<QuarantineReason>(i)))
        .inc(ingest_stats_.by_reason[i]);
  }
}

namespace {

bn::BigInt read_bigint(util::BinaryReader& r) {
  return bn::BigInt::from_bytes(r.bytes());
}

void write_bigint(util::BinaryWriter& w, const bn::BigInt& v) {
  w.bytes(v.to_bytes());
}

}  // namespace

bool Study::load_factor_cache(const std::string& path,
                              const netsim::CertificateIndex& index) {
  // Truncated or bit-flipped caches fail the length+CRC footer and fall
  // back to recomputation, mirroring the dataset cache's truncation safety.
  if (!util::verify_checksum_footer(path)) return false;
  util::BinaryReader r(path);
  if (!r.ok()) return false;
  try {
    if (r.u32() != kFactorMagic) return false;
    if (r.u64() != config_.sim.seed) return false;
    if (r.u64() != static_cast<std::uint64_t>(config_.sim.scale * 1e6))
      return false;
    if (r.u32() != kCatalogVersion) return false;
    // Noisy and pristine runs must never share factoring results: the
    // degenerate-modulus triage below folds quarantine output into stats_.
    if (r.u64() != config_.noise.fingerprint()) return false;
    stats_.distinct_moduli = r.u64();
    stats_.nontrivial_divisors = r.u64();
    stats_.shared_prime = r.u64();
    stats_.full_modulus = r.u64();
    stats_.bit_errors = r.u64();
    stats_.other = r.u64();
    stats_.second_pass_factored = r.u64();
    const std::uint32_t count = r.u32();
    factored_.clear();
    for (std::uint32_t i = 0; i < count; ++i) {
      FactorRecord f;
      f.n = read_bigint(r);
      f.p = read_bigint(r);
      f.q = read_bigint(r);
      f.divisor_class = static_cast<fingerprint::DivisorClass>(r.u32());
      f.modulus = index.find_modulus(dataset_, f.n);
      if (f.modulus == netsim::CertificateIndex::kNone) {
        throw std::runtime_error("factored modulus not in the corpus");
      }
      vulnerable_.insert(f.n);
      factored_.push_back(std::move(f));
    }
    return true;
  } catch (const std::exception&) {
    factored_.clear();
    vulnerable_ = analysis::VulnerableSet();
    stats_ = FactorStats{};
    return false;
  }
}

void Study::save_factor_cache(const std::string& path) const {
  // Stream to <path>.tmp and publish atomically: a SIGKILL between the
  // payload and the footer must never leave a torn factor cache behind.
  const std::string tmp = util::atomic_tmp_path(path);
  {
    util::BinaryWriter w(tmp);
    write_factor_cache_payload(w);
  }
  util::append_checksum_footer(tmp);
  util::atomic_publish_file(tmp, path);
}

void Study::write_factor_cache_payload(util::BinaryWriter& w) const {
  w.u32(kFactorMagic);
  w.u64(config_.sim.seed);
  w.u64(static_cast<std::uint64_t>(config_.sim.scale * 1e6));
  w.u32(kCatalogVersion);
  w.u64(config_.noise.fingerprint());
  w.u64(stats_.distinct_moduli);
  w.u64(stats_.nontrivial_divisors);
  w.u64(stats_.shared_prime);
  w.u64(stats_.full_modulus);
  w.u64(stats_.bit_errors);
  w.u64(stats_.other);
  w.u64(stats_.second_pass_factored);
  w.u32(static_cast<std::uint32_t>(factored_.size()));
  for (const auto& f : factored_) {
    write_bigint(w, f.n);
    write_bigint(w, f.p);
    write_bigint(w, f.q);
    w.u32(static_cast<std::uint32_t>(f.divisor_class));
  }
}

DivisorPass classify_divisors(const std::vector<bn::BigInt>& moduli,
                              const std::vector<bn::BigInt>& divisors,
                              util::ThreadPool* pool,
                              const util::CancellationToken* cancel) {
  using fingerprint::DivisorClass;
  std::vector<std::size_t> nontrivial;
  for (std::size_t i = 0; i < moduli.size(); ++i) {
    if (divisors[i] > bn::BigInt(1)) nontrivial.push_back(i);
  }
  struct Verdict {
    DivisorClass cls = DivisorClass::kOther;
    std::optional<batchgcd::Factorization> split;
  };
  std::vector<Verdict> verdicts(nontrivial.size());
  // A primality test per divisor: a handful per block is enough work.
  util::parallel_for_blocks(
      pool, nontrivial.size(), 4,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t k = begin; k < end; ++k) {
          const std::size_t i = nontrivial[k];
          Verdict& v = verdicts[k];
          v.cls = fingerprint::classify_divisor(moduli[i], divisors[i]).cls;
          if (v.cls == DivisorClass::kSharedPrime) {
            v.split = batchgcd::recover_factors(moduli[i], divisors[i]);
          }
        }
      },
      cancel);

  DivisorPass out;
  out.counts.nontrivial_divisors = nontrivial.size();
  for (std::size_t k = 0; k < nontrivial.size(); ++k) {
    const std::size_t i = nontrivial[k];
    switch (verdicts[k].cls) {
      case DivisorClass::kSharedPrime:
        out.factored.push_back({moduli[i], verdicts[k].split->p,
                                verdicts[k].split->q, verdicts[k].cls,
                                static_cast<std::uint32_t>(i)});
        ++out.counts.shared_prime;
        break;
      case DivisorClass::kFullModulus:
        out.full_modulus.push_back(i);
        ++out.counts.full_modulus;
        break;
      case DivisorClass::kSmoothBitError:
        ++out.counts.bit_errors;
        break;
      case DivisorClass::kOther:
        ++out.counts.other;
        break;
    }
  }
  return out;
}

void Study::factor_moduli(util::ThreadPool& pool,
                          const netsim::CertificateIndex& index) {
  obs::Span stage = telemetry_.tracer().span("study.factor_moduli");
  auto& metrics = telemetry_.metrics();
  const std::string factor_cache =
      config_.cache_path.empty() ? "" : config_.cache_path + ".factors";
  if (!factor_cache.empty() && load_factor_cache(factor_cache, index)) {
    metrics.counter("cache.factors.hit").inc();
    record_factor_metrics();
    log("loaded " + std::to_string(factored_.size()) +
        " factored moduli from " + factor_cache);
    return;
  }
  if (!factor_cache.empty()) metrics.counter("cache.factors.miss").inc();

  obs::Span distinct_span = telemetry_.tracer().span("study.distinct_moduli");
  const std::vector<bn::BigInt> moduli = dataset_.distinct_moduli(&index);
  distinct_span.end();
  stats_.distinct_moduli = moduli.size();
  log("running batch GCD over " + std::to_string(moduli.size()) +
      " distinct moduli (k=" + std::to_string(config_.batch_gcd_subsets) + ")");

  // Out-of-core spill policy (DESIGN.md §5l). One TreeStorage parameterizes
  // every subset tree this run builds; generation 0 means each tree stamps
  // its level files with its own subset fingerprint, which is stable across
  // runs of the same corpus — exactly what SIGKILL resume needs.
  util::FaultInjector storage_injector(config_.faults);
  batchgcd::TreeStorage tree_storage;
  tree_storage.spill_dir = config_.spill_dir;
  tree_storage.spill_threshold_bytes =
      static_cast<std::uint64_t>(config_.spill_threshold_mb) * 1024 * 1024;
  tree_storage.base = "study";
  tree_storage.registry = &metrics;
  tree_storage.ram_fallback_budget_bytes =
      static_cast<std::uint64_t>(config_.spill_ram_fallback_mb) * 1024 * 1024;
  if (config_.faults.any_storage_faults()) {
    tree_storage.injector = &storage_injector;
  }
  const batchgcd::TreeStorage* storage =
      tree_storage.enabled() ? &tree_storage : nullptr;
  if (storage != nullptr) {
    log("spill: dir=" + config_.spill_dir + " threshold=" +
        std::to_string(config_.spill_threshold_mb) + " MiB");
  }

  const std::string journal_path =
      config_.cache_path.empty() ? "" : config_.cache_path + ".gcdckpt";
  batchgcd::BatchGcdResult result;
  if (config_.worker_processes > 0 || config_.remote_workers > 0) {
    obs::Span gcd_span = telemetry_.tracer().span("gcd.cluster");
    // Multi-process path: fork/exec gcd_worker processes, supervise them
    // over TCP with heartbeats and per-task timeouts, survive crashes via
    // respawn and the same resume journal the in-process path writes.
    cluster::ClusterConfig cc;
    cc.subsets = config_.batch_gcd_subsets;
    cc.workers = config_.worker_processes;
    cc.remote_workers = config_.remote_workers;
    cc.worker_binary = config_.worker_binary;
    cc.port = static_cast<std::uint16_t>(config_.worker_port);
    cc.telemetry_interval =
        std::chrono::milliseconds(config_.telemetry_interval_ms);
    cc.fleet_trace_path = config_.fleet_trace_path;
    cc.profile_hz = config_.profile_hz;
    cc.profile_out = config_.profile_out;
    cc.checkpoint_path = journal_path;
    cc.log = [this](const std::string& message) { log(message); };
    cc.telemetry = &telemetry_;
    cc.cancel = &token_;
    util::FaultInjector injector(config_.faults);
    if (config_.faults.any_faults()) cc.injector = &injector;
    if (storage != nullptr) {
      // The workers build the subset trees, so they get the spill policy.
      cc.spill_dir = config_.spill_dir;
      cc.spill_threshold_mb =
          static_cast<std::size_t>(config_.spill_threshold_mb);
    }
    result = cluster::batch_gcd_cluster(moduli, cc, &cluster_stats_);
    gcd_span.end();
    log("cluster: " + std::to_string(cluster_stats_.tasks_executed) +
        " tasks on " + std::to_string(cluster_stats_.workers_spawned) +
        " worker processes (" + std::to_string(cluster_stats_.respawns) +
        " respawns, " + std::to_string(cluster_stats_.workers_lost) +
        " lost, " + std::to_string(cluster_stats_.reconnects) +
        " reconnects, " + std::to_string(cluster_stats_.results_quarantined) +
        " quarantined, " + std::to_string(cluster_stats_.tasks_resumed) +
        " resumed from checkpoint)");
  } else {
    // In-process path: the k rows on a thread pool, each committed row
    // journaled so a killed or cancelled run resumes only the rest.
    obs::Span gcd_span = telemetry_.tracer().span("gcd.distributed");
    batchgcd::DistributedOptions options;
    options.cancel = &token_;
    options.registry = &telemetry_.metrics();
    options.storage = storage;
    options.journal_path = journal_path;
    result = batchgcd::batch_gcd_distributed(moduli, config_.batch_gcd_subsets,
                                             &pool, &distributed_stats_,
                                             options);
    if (distributed_stats_.tasks_resumed > 0) {
      log("checkpoint: resumed " +
          std::to_string(distributed_stats_.tasks_resumed) + "/" +
          std::to_string(distributed_stats_.tasks) + " tasks from " +
          journal_path);
    }
  }

  obs::Span classify_span = telemetry_.tracer().span("study.classify_divisors");
  DivisorPass divisors =
      classify_divisors(moduli, result.divisors, &pool, &token_);
  for (const auto& f : divisors.factored) vulnerable_.insert(f.n);
  factored_ = std::move(divisors.factored);
  divisors.counts.distinct_moduli = stats_.distinct_moduli;
  stats_ = divisors.counts;
  classify_span.end();

  // Second pass: moduli whose divisor equals the modulus share *both* primes
  // with the rest of the corpus (degenerate-generator cliques). Pairwise GCD
  // within this small set splits them.
  obs::Span second_pass_span = telemetry_.tracer().span("study.second_pass");
  for (const std::size_t i : divisors.full_modulus) {
    for (const std::size_t j : divisors.full_modulus) {
      if (i == j) continue;
      const bn::BigInt g = bn::gcd(moduli[i], moduli[j]);
      if (g > bn::BigInt(1) && g < moduli[i]) {
        factored_.push_back({moduli[i], g, moduli[i] / g,
                             fingerprint::DivisorClass::kFullModulus,
                             static_cast<std::uint32_t>(i)});
        vulnerable_.insert(moduli[i]);
        ++stats_.second_pass_factored;
        break;
      }
    }
  }

  second_pass_span.end();

  // Quarantined degenerate moduli (zero/tiny/even) never reach the GCD
  // input — an even modulus alone would smear a factor of 2 across the whole
  // corpus — but the paper still accounts for them as malformed keys, so
  // triage each into the bit-error/other buckets here.
  obs::Span triage_span = telemetry_.tracer().span("study.triage_degenerate");
  std::size_t triaged_bit_errors = 0;
  for (const auto& n : degenerate_moduli_) {
    if (fingerprint::triage_degenerate_modulus(n) ==
        fingerprint::DivisorClass::kSmoothBitError) {
      ++stats_.bit_errors;
      ++triaged_bit_errors;
    } else {
      ++stats_.other;
    }
  }
  if (!degenerate_moduli_.empty()) {
    log("triaged " + std::to_string(degenerate_moduli_.size()) +
        " quarantined degenerate moduli (" +
        std::to_string(triaged_bit_errors) + " as bit errors)");
  }

  triage_span.end();

  record_factor_metrics();
  log("factored " + std::to_string(factored_.size()) + " moduli (" +
      std::to_string(stats_.bit_errors) + " bit errors excluded)");
  if (!factor_cache.empty()) save_factor_cache(factor_cache);
}

/// Mirrors FactorStats into `factor.*` counters (set, not inc: the stats
/// struct is the authoritative total, whether computed or cache-loaded).
void Study::record_factor_metrics() {
  auto& metrics = telemetry_.metrics();
  metrics.counter("factor.distinct_moduli").set(stats_.distinct_moduli);
  metrics.counter("factor.nontrivial_divisors")
      .set(stats_.nontrivial_divisors);
  metrics.counter("factor.shared_prime").set(stats_.shared_prime);
  metrics.counter("factor.full_modulus").set(stats_.full_modulus);
  metrics.counter("factor.bit_errors").set(stats_.bit_errors);
  metrics.counter("factor.other").set(stats_.other);
  metrics.counter("factor.second_pass_factored")
      .set(stats_.second_pass_factored);
  metrics.counter("factor.factored_moduli").set(factored_.size());
}

void Study::fingerprint_corpus(util::ThreadPool& pool,
                               netsim::CertificateIndex index) {
  obs::Span stage = telemetry_.tracer().span("study.fingerprint");
  // Degenerate-generator cliques.
  obs::Span clique_span = telemetry_.tracer().span("fingerprint.cliques");
  std::vector<fingerprint::FactoredModulus> triples;
  triples.reserve(factored_.size());
  for (const auto& f : factored_) triples.push_back({f.p, f.q, f.n});
  cliques_ = fingerprint::find_degenerate_cliques(triples);
  std::vector<std::uint8_t> in_clique(index.moduli());
  for (const auto& clique : cliques_) {
    for (const auto& n : clique.moduli) {
      in_clique[index.find_modulus(dataset_, n)] = 1;
    }
  }
  log("found " + std::to_string(cliques_.size()) +
      " degenerate-generator cliques");
  telemetry_.metrics().counter("fingerprint.cliques").set(cliques_.size());
  clique_span.end();
  token_.throw_if_cancelled();

  // Subject labels per unique certificate, and per-modulus subject vendors.
  obs::Span subject_span =
      telemetry_.tracer().span("fingerprint.subject_labels");
  // Records share certificates, and a certificate's label and modulus are
  // the same on each of its records: label each certificate once, from the
  // banner of the first record that shows it.
  const auto labels =
      subject_rules_.classify_all(dataset_, index, &pool, &token_);
  std::vector<std::set<std::string>> subject_vendors(index.moduli());
  for (std::size_t i = 0; i < index.size(); ++i) {
    if (!labels[i]) continue;
    subject_vendors[index.modulus_of[i]].insert(labels[i]->vendor);
  }

  subject_span.end();
  token_.throw_if_cancelled();

  // Vendor prime pools from subject-labeled factored moduli (clique primes
  // stay out: the clique label takes precedence, as in the paper).
  obs::Span pools_span = telemetry_.tracer().span("fingerprint.prime_pools");
  // factored_vendor_ records each modulus's vendor as it is settled.
  std::vector<analysis::FactoredKey> keys;
  factored_vendor_.assign(factored_.size(), "");
  for (std::size_t i = 0; i < factored_.size(); ++i) {
    const FactorRecord& f = factored_[i];
    keys.push_back({f.modulus, in_clique[f.modulus] != 0, ""});
    const std::set<std::string>& vendors = subject_vendors[f.modulus];
    if (keys[i].clique) {
      factored_vendor_[i] = "IBM";
    } else if (vendors.size() == 1) {
      factored_vendor_[i] = *vendors.begin();
      pools_.add(factored_vendor_[i], f.p);
      pools_.add(factored_vendor_[i], f.q);
    }
  }

  pools_span.end();

  // Shared-prime extrapolation for factored moduli with no subject label.
  obs::Span extrapolate_span =
      telemetry_.tracer().span("fingerprint.extrapolate");
  std::size_t extrapolated = 0;
  for (std::size_t i = 0; i < factored_.size(); ++i) {
    const FactorRecord& f = factored_[i];
    if (keys[i].clique || !subject_vendors[f.modulus].empty()) continue;
    keys[i].extrapolated = factored_vendor_[i] = pools_.extrapolate(f.p, f.q);
    extrapolated += !keys[i].extrapolated.empty();
  }
  log("shared-prime extrapolation labeled " + std::to_string(extrapolated) +
      " moduli");
  telemetry_.metrics().counter("fingerprint.extrapolated").set(extrapolated);
  extrapolate_span.end();

  // Fixed-key MITM candidates.
  obs::Span mitm_span = telemetry_.tracer().span("fingerprint.mitm");
  std::vector<std::string> factored_hex;
  factored_hex.reserve(factored_.size());
  for (const auto& f : factored_) factored_hex.push_back(f.n.to_hex());
  mitm_ = fingerprint::detect_fixed_key_mitm(dataset_, factored_hex,
                                             fingerprint::MitmOptions{}, &pool,
                                             &token_, &index);
  telemetry_.metrics().counter("fingerprint.mitm_candidates").set(mitm_.size());
  mitm_span.end();
  stage.end();

  // Every output's per-certificate facts, once.
  obs::Span facts_span = telemetry_.tracer().span("study.facts");
  facts_ = analysis::build_certificate_facts(std::move(index), labels, keys);
}

std::map<std::string, std::vector<bn::BigInt>>
Study::recovered_primes_by_vendor() const {
  std::map<std::string, std::vector<bn::BigInt>> out;
  for (std::size_t i = 0; i < factored_.size(); ++i) {
    if (factored_vendor_[i].empty()) continue;
    out[factored_vendor_[i]].push_back(factored_[i].p);
    out[factored_vendor_[i]].push_back(factored_[i].q);
  }
  return out;
}

analysis::TimeSeriesBuilder Study::series_builder() const {
  return analysis::TimeSeriesBuilder(dataset_, facts_);
}

const netsim::ScanDataset& Study::raw_dataset() const { return raw_dataset_; }
const netsim::ScanDataset& Study::dataset() const { return dataset_; }
const IngestStats& Study::ingest_stats() const { return ingest_stats_; }
const netsim::NoiseSummary& Study::noise_summary() const {
  return noise_summary_;
}
DatasetLoadStatus Study::dataset_cache_status() const {
  return dataset_cache_status_;
}
const FactorStats& Study::factor_stats() const { return stats_; }
const batchgcd::DistributedStats& Study::distributed_stats() const {
  return distributed_stats_;
}
const std::vector<FactorRecord>& Study::factored() const { return factored_; }
const analysis::VulnerableSet& Study::vulnerable() const { return vulnerable_; }
const std::vector<fingerprint::PrimeClique>& Study::cliques() const {
  return cliques_;
}
const fingerprint::PrimePools& Study::prime_pools() const { return pools_; }
const std::vector<fingerprint::MitmCandidate>& Study::mitm_candidates() const {
  return mitm_;
}

}  // namespace weakkeys::core

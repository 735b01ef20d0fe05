// The ingest/quarantine stage: graceful degradation for dirty corpora.
//
// Between the raw scan data and everything downstream (chain
// reconstruction, batch GCD, fingerprinting) sits a validation pass that
// never aborts: records that fail to decode or carry degenerate keys are
// dropped into per-reason quarantine counters, and structurally
// non-well-formed moduli are rerouted to the divisor-class triage (the
// paper's smooth/bit-error bucket) instead of reaching the batch-GCD input,
// where an even modulus would smear a factor of 2 across the whole corpus.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "netsim/dataset.hpp"
#include "util/cancellation.hpp"

namespace weakkeys::util {
class ThreadPool;
}

namespace weakkeys::core {

enum class QuarantineReason : std::uint8_t {
  // Decode failures (records arriving as raw bytes).
  kParseTruncatedHeader = 0,
  kParseLengthOverrun,
  kParseBadTag,
  kParseBadFieldWidth,
  kParseBadDn,
  kParseBadDate,
  kParseOther,  ///< end-of-input, trailing garbage, ...
  // Semantic failures (records that decode but are not plausible).
  kMissingCertificate,  ///< neither a decoded certificate nor raw bytes
  kZeroModulus,         ///< n <= 1
  kTinyModulus,         ///< n far below any real key size
  kEvenModulus,         ///< n even — never a product of two odd primes
  kBadExponent,         ///< e in {0, 1}
  kInvertedValidity,    ///< not_after < not_before
  kDuplicateSerial,     ///< serial already seen under a different subject
};

inline constexpr std::size_t kQuarantineReasonCount = 14;

const char* to_string(QuarantineReason r);

struct IngestStats {
  std::size_t records_seen = 0;
  std::size_t records_kept = 0;
  std::size_t records_quarantined = 0;
  /// Records that arrived as undecoded bytes (dirty-corpus wire damage).
  std::size_t raw_records = 0;
  /// Raw-byte records that decoded and validated — recovered, kept.
  std::size_t raw_recovered = 0;
  /// Distinct degenerate moduli rerouted to the divisor-class triage.
  std::size_t degenerate_moduli = 0;
  std::array<std::size_t, kQuarantineReasonCount> by_reason{};

  friend bool operator==(const IngestStats&, const IngestStats&) = default;

  [[nodiscard]] std::size_t quarantined(QuarantineReason r) const {
    return by_reason[static_cast<std::size_t>(r)];
  }
  /// Sum of the parse-failure reasons only.
  [[nodiscard]] std::size_t parse_failures() const;
  /// One-line per-reason breakdown for the progress log.
  [[nodiscard]] std::string summary() const;
};

struct IngestResult {
  /// The validated dataset: every record carries a decoded, plausibly
  /// well-formed certificate.
  netsim::ScanDataset kept;
  IngestStats stats;
  /// Distinct quarantined moduli that were structurally degenerate (zero,
  /// tiny, even) — callers feed these to fingerprint::triage_degenerate_modulus
  /// so FactorStats still accounts for them.
  std::vector<bn::BigInt> degenerate_moduli;
};

/// Validates every record of `raw`, decoding a certificate-less record's
/// bytes from its snapshot's `undecoded` list (an entry naming no such
/// record is ignored). Total: never throws on any input dataset, and a
/// clean dataset passes through with kept == raw. The one
/// exception is cooperative cancellation: when `cancel` is non-null it is
/// polled per snapshot and per pool task, and a trip throws
/// util::Cancelled.
///
/// With a `pool`, each certificate's checks, the decode attempts and each
/// snapshot's copy run on it; the serial-number check runs in record order
/// either way, so the result does not depend on the pool.
IngestResult ingest_dataset(const netsim::ScanDataset& raw,
                            const util::CancellationToken* cancel = nullptr,
                            util::ThreadPool* pool = nullptr);

}  // namespace weakkeys::core

#include "core/ingest.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "cert/certificate.hpp"
#include "util/thread_pool.hpp"

namespace weakkeys::core {

namespace {

/// Any real device key is >= 256 bits even in this scaled-down simulation;
/// half that is a safe floor below which a modulus is scan garbage.
constexpr std::size_t kMinModulusBits = 128;

QuarantineReason reason_for(cert::ParseError e) {
  switch (e) {
    case cert::ParseError::kTruncatedHeader:
      return QuarantineReason::kParseTruncatedHeader;
    case cert::ParseError::kLengthOverrun:
      return QuarantineReason::kParseLengthOverrun;
    case cert::ParseError::kUnexpectedTag:
      return QuarantineReason::kParseBadTag;
    case cert::ParseError::kBadFieldWidth:
      return QuarantineReason::kParseBadFieldWidth;
    case cert::ParseError::kBadDn:
      return QuarantineReason::kParseBadDn;
    case cert::ParseError::kBadDate:
      return QuarantineReason::kParseBadDate;
    case cert::ParseError::kNone:
    case cert::ParseError::kEndOfInput:
    case cert::ParseError::kTrailingGarbage:
      break;
  }
  return QuarantineReason::kParseOther;
}

/// True for the reasons whose modulus goes to the divisor-class triage.
bool is_degenerate_modulus(QuarantineReason r) {
  return r == QuarantineReason::kZeroModulus ||
         r == QuarantineReason::kTinyModulus ||
         r == QuarantineReason::kEvenModulus;
}

/// A certificate's verdict from the checks that read it alone (none when
/// it passes them), and the subject the serial-number check compares.
struct Screened {
  std::optional<QuarantineReason> verdict;
  std::string subject;
};

Screened screen(const cert::Certificate& c) {
  const bn::BigInt& n = c.key.n;
  if (n <= bn::BigInt(1)) return {QuarantineReason::kZeroModulus, {}};
  if (n.bit_length() < kMinModulusBits) {
    return {QuarantineReason::kTinyModulus, {}};
  }
  if (n.is_even()) return {QuarantineReason::kEvenModulus, {}};
  if (c.key.e <= bn::BigInt(1)) return {QuarantineReason::kBadExponent, {}};
  if (c.validity.not_after < c.validity.not_before) {
    return {QuarantineReason::kInvertedValidity, {}};
  }
  return {std::nullopt, c.subject.to_string()};
}

/// One undecoded record after its decode attempt.
struct RawOutcome {
  std::size_t record = 0;
  netsim::CertHandle decoded;  ///< null when the bytes did not decode
  Screened screen;
};

/// Serial reuse under a different subject marks junk echoing a real
/// certificate. Legitimate same-serial variants (per-observation bit flips,
/// MITM key substitution) keep the victim's subject and pass. The answer
/// depends on what came before, so records are checked in record order.
class SerialRegistry {
 public:
  /// `register_serial` controls whether a passing certificate claims its
  /// serial — recovered wire damage must not (a bit-flipped serial could
  /// otherwise poison the map and quarantine a later legitimate
  /// certificate).
  std::optional<QuarantineReason> check(std::uint64_t serial,
                                        const std::string& subject,
                                        bool register_serial) {
    const auto it = subjects_.find(serial);
    if (it != subjects_.end()) {
      if (it->second != subject) return QuarantineReason::kDuplicateSerial;
    } else if (register_serial) {
      subjects_.emplace(serial, subject);
    }
    return std::nullopt;
  }

 private:
  std::unordered_map<std::uint64_t, std::string> subjects_;
};

void quarantine(IngestStats& stats, QuarantineReason reason) {
  ++stats.records_quarantined;
  ++stats.by_reason[static_cast<std::size_t>(reason)];
}

}  // namespace

const char* to_string(QuarantineReason r) {
  switch (r) {
    case QuarantineReason::kParseTruncatedHeader:
      return "parse:truncated-header";
    case QuarantineReason::kParseLengthOverrun:
      return "parse:length-overrun";
    case QuarantineReason::kParseBadTag:
      return "parse:bad-tag";
    case QuarantineReason::kParseBadFieldWidth:
      return "parse:bad-field-width";
    case QuarantineReason::kParseBadDn:
      return "parse:bad-dn";
    case QuarantineReason::kParseBadDate:
      return "parse:bad-date";
    case QuarantineReason::kParseOther:
      return "parse:other";
    case QuarantineReason::kMissingCertificate:
      return "missing-certificate";
    case QuarantineReason::kZeroModulus:
      return "zero-modulus";
    case QuarantineReason::kTinyModulus:
      return "tiny-modulus";
    case QuarantineReason::kEvenModulus:
      return "even-modulus";
    case QuarantineReason::kBadExponent:
      return "bad-exponent";
    case QuarantineReason::kInvertedValidity:
      return "inverted-validity";
    case QuarantineReason::kDuplicateSerial:
      return "duplicate-serial";
  }
  return "unknown";
}

std::size_t IngestStats::parse_failures() const {
  std::size_t total = 0;
  for (std::size_t i = 0;
       i <= static_cast<std::size_t>(QuarantineReason::kParseOther); ++i) {
    total += by_reason[i];
  }
  return total;
}

std::string IngestStats::summary() const {
  std::string out = "kept " + std::to_string(records_kept) + "/" +
                    std::to_string(records_seen) + " records";
  if (raw_records > 0) {
    out += ", " + std::to_string(raw_recovered) + "/" +
           std::to_string(raw_records) + " raw recovered";
  }
  if (records_quarantined == 0) return out;
  out += ", quarantined " + std::to_string(records_quarantined) + " (";
  bool first = true;
  for (std::size_t i = 0; i < kQuarantineReasonCount; ++i) {
    if (by_reason[i] == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += std::string(to_string(static_cast<QuarantineReason>(i))) + "=" +
           std::to_string(by_reason[i]);
  }
  return out + ")";
}

IngestResult ingest_dataset(const netsim::ScanDataset& raw,
                            const util::CancellationToken* cancel,
                            util::ThreadPool* pool) {
  using netsim::CertificateIndex;
  const std::size_t snapshot_count = raw.snapshots.size();
  const CertificateIndex index = netsim::index_certificates(raw);

  // On the pool: each certificate's own checks, once however many records
  // show it, and the decode attempt of every undecoded record. Decode
  // allocations are attributed to cert.parse for the memory census.
  std::vector<Screened> certs(index.size());
  util::parallel_for_blocks(
      pool, index.size(), 256,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          certs[i] = screen(index.first_record(raw, i).cert());
        }
      },
      cancel);
  std::vector<std::vector<RawOutcome>> raw_outcomes(snapshot_count);
  util::parallel_for(
      pool, snapshot_count,
      [&](std::size_t s) {
        const auto& snap = raw.snapshots[s];
        // In record order; bytes count only for a certificate-less record.
        for (const auto& [r, der] : snap.undecoded) {
          if (r >= snap.records.size() || snap.records[r].has_cert()) continue;
          RawOutcome out{r, nullptr, {}};
          auto decoded = cert::Certificate::try_decode(der);
          if (decoded.ok()) {
            out.decoded = std::make_shared<const cert::Certificate>(
                *std::move(decoded.cert));
            out.screen = screen(*out.decoded);
          } else {
            out.screen.verdict = reason_for(decoded.error);
          }
          raw_outcomes[s].push_back(std::move(out));
        }
      },
      cancel);

  // Serially, in record order: the serial-number check of each
  // certificate's first record and of each decoded record, and the
  // degenerate moduli in the order their first records appear.
  IngestResult result;
  SerialRegistry serials;
  // A degenerate modulus is listed once, told apart by its id in `index`;
  // only a decoded raw record's modulus can lack one, and it is compared
  // with those already listed.
  std::vector<std::uint8_t> listed(index.moduli());
  const auto first_listing = [&](const bn::BigInt& n) {
    const std::uint32_t m = index.find_modulus(raw, n);
    if (m != CertificateIndex::kNone) return std::exchange(listed[m], 1) == 0;
    const auto& all = result.degenerate_moduli;
    return std::find(all.begin(), all.end(), n) == all.end();
  };
  const auto check = [&](Screened& c, const cert::Certificate& cert,
                         bool claim_serial) {
    if (!c.verdict) {
      c.verdict = serials.check(cert.serial, c.subject, claim_serial);
    }
    if (c.verdict && is_degenerate_modulus(*c.verdict) &&
        first_listing(cert.key.n)) {
      result.degenerate_moduli.push_back(cert.key.n);
    }
  };
  std::size_t next = 0;  // next certificate in first-seen order
  for (std::size_t s = 0; s < snapshot_count; ++s) {
    if (cancel) cancel->throw_if_cancelled();
    auto raw_it = raw_outcomes[s].begin();
    const auto raw_end = raw_outcomes[s].end();
    for (;;) {
      const bool cert_here =
          next < index.size() && index.first[next].snapshot == s;
      if (!cert_here && raw_it == raw_end) break;
      if (cert_here &&
          (raw_it == raw_end || index.first[next].record < raw_it->record)) {
        check(certs[next], index.first_record(raw, next).cert(), true);
        ++next;
      } else {
        if (raw_it->decoded) check(raw_it->screen, *raw_it->decoded, false);
        ++raw_it;
      }
    }
  }
  result.stats.degenerate_moduli = result.degenerate_moduli.size();

  // On the pool: each snapshot's kept records and counts.
  std::vector<IngestStats> stats(snapshot_count);
  result.kept.snapshots.resize(snapshot_count);
  util::parallel_for(
      pool, snapshot_count,
      [&](std::size_t s) {
        const netsim::ScanSnapshot& snap = raw.snapshots[s];
        const auto& slots = index.slots[s];
        IngestStats& st = stats[s];
        netsim::ScanSnapshot& kept = result.kept.snapshots[s];
        kept.date = snap.date;
        kept.source = snap.source;
        kept.protocol = snap.protocol;
        kept.records.reserve(snap.records.size());
        auto raw_it = raw_outcomes[s].begin();
        for (std::size_t r = 0; r < snap.records.size(); ++r) {
          const auto& rec = snap.records[r];
          ++st.records_seen;
          if (slots[r] != CertificateIndex::kNone) {
            if (const auto& verdict = certs[slots[r]].verdict) {
              quarantine(st, *verdict);
              continue;
            }
            kept.records.push_back(rec);
            ++st.records_kept;
            continue;
          }
          if (raw_it == raw_outcomes[s].end() || raw_it->record != r) {
            quarantine(st, QuarantineReason::kMissingCertificate);
            continue;
          }
          ++st.raw_records;
          RawOutcome& out = *raw_it++;
          if (out.screen.verdict) {
            quarantine(st, *out.screen.verdict);
            continue;
          }
          kept.records.push_back({rec.ip, std::move(out.decoded), rec.banner});
          ++st.records_kept;
          ++st.raw_recovered;
        }
      },
      cancel);
  for (const IngestStats& st : stats) {
    result.stats.records_seen += st.records_seen;
    result.stats.records_kept += st.records_kept;
    result.stats.records_quarantined += st.records_quarantined;
    result.stats.raw_records += st.raw_records;
    result.stats.raw_recovered += st.raw_recovered;
    for (std::size_t i = 0; i < kQuarantineReasonCount; ++i) {
      result.stats.by_reason[i] += st.by_reason[i];
    }
  }
  return result;
}

}  // namespace weakkeys::core

// Scan records and datasets: the schema the analysis pipeline consumes.
//
// A HostRecord is what one TLS handshake (or SSH key exchange) with one IP
// yields — the paper's "host record" unit (Table 1) — under the snapshot
// that dates it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cert/certificate.hpp"
#include "netsim/ipv4.hpp"
#include "netsim/protocol.hpp"
#include "util/date.hpp"

namespace weakkeys::util {
class ThreadPool;
}

namespace weakkeys::netsim {

/// Certificates are shared between the many host records that present them;
/// a record therefore holds a shared handle, not a copy.
using CertHandle = std::shared_ptr<const cert::Certificate>;

/// What one handshake with one host yields; everything the host's scan
/// shares with its other records (date, source, protocol) is its snapshot's.
struct HostRecord {
  Ipv4 ip;
  CertHandle certificate;
  std::string banner;  ///< HTTPS landing-page hint (may be empty)

  [[nodiscard]] const cert::Certificate& cert() const { return *certificate; }
  /// True when the record carries a decoded certificate (the only records
  /// the analysis layers consume).
  [[nodiscard]] bool has_cert() const { return certificate != nullptr; }
};

/// One scan: every host record collected in a single campaign pass.
struct ScanSnapshot {
  util::Date date;
  std::string source;  ///< "EFF", "PQ", "Ecosystem", "Rapid7", "Censys"
  Protocol protocol = Protocol::kHttps;
  std::vector<HostRecord> records;
  /// Undecoded wire bytes of certificate-less records, keyed by record
  /// index: the dirty-corpus form of truncated or mangled handshakes.
  /// apply_noise writes them and the ingest quarantine pass alone decodes
  /// them, so such records never reach the analysis pipeline directly.
  std::map<std::uint32_t, std::vector<std::uint8_t>> undecoded;
};

/// A scan campaign: one historical data source with its cadence and quirks.
struct ScanCampaign {
  std::string name;
  util::Date first;
  util::Date last;
  int months_between_scans = 1;
  double coverage = 0.97;  ///< fraction of alive hosts a pass observes
  Protocol protocol = Protocol::kHttps;
};

struct CertificateIndex;

/// The aggregated corpus: all snapshots from all campaigns, ordered by date.
class ScanDataset {
 public:
  std::vector<ScanSnapshot> snapshots;

  [[nodiscard]] std::size_t total_host_records() const;

  /// Distinct RSA moduli across all snapshots, in modulus-id order (the
  /// order their first records appear). `index`, when given, must be
  /// index_certificates(*this); without one the call builds it.
  [[nodiscard]] std::vector<bn::BigInt> distinct_moduli(
      const CertificateIndex* index = nullptr) const;
};

/// Every distinct certificate object of a dataset once, in the order of
/// the first record that shows it, and each record's index into that list.
/// A host shows the same certificate handle scan after scan, so a pass
/// computes what it needs once per certificate and reads it per record by
/// index, with no per-record hashing or rendering. It is also the one place
/// that decides modulus identity: each distinct modulus gets a dense id, in
/// first-seen order, and passes count and group keys by id.
struct CertificateIndex {
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  struct Position {
    std::uint32_t snapshot = 0;
    std::uint32_t record = 0;
  };
  /// Where each distinct certificate first appears, in record order.
  std::vector<Position> first;
  /// slots[s][r] is the index in `first` of snapshot s record r's
  /// certificate: kNone for a record without one, or in a snapshot the
  /// index left out.
  std::vector<std::vector<std::uint32_t>> slots;
  /// modulus_of[c] is certificate c's modulus id.
  std::vector<std::uint32_t> modulus_of;
  /// modulus_first[m] is the first certificate with modulus id m.
  std::vector<std::uint32_t> modulus_first;
  /// Modulus ids open-addressed by limb hash (kNone = empty entry).
  std::vector<std::uint32_t> modulus_table;

  [[nodiscard]] std::size_t size() const { return first.size(); }
  [[nodiscard]] std::size_t moduli() const { return modulus_first.size(); }
  [[nodiscard]] const HostRecord& first_record(const ScanDataset& ds,
                                               std::size_t i) const {
    return ds.snapshots[first[i].snapshot].records[first[i].record];
  }
  /// The value of modulus id `m`.
  [[nodiscard]] const bn::BigInt& modulus(const ScanDataset& ds,
                                          std::uint32_t m) const {
    return first_record(ds, modulus_first[m]).cert().key.n;
  }
  /// The id of modulus `n`, or kNone when no indexed certificate has it.
  [[nodiscard]] std::uint32_t find_modulus(const ScanDataset& ds,
                                           const bn::BigInt& n) const {
    return modulus_table.empty() ? kNone : modulus_table[entry(ds, n)];
  }

 private:
  friend CertificateIndex index_certificates(const ScanDataset&,
                                             const Protocol*);
  /// The modulus_table entry holding `n`'s id, or the empty entry where it
  /// belongs. The table is never full.
  [[nodiscard]] std::size_t entry(const ScanDataset& ds,
                                  const bn::BigInt& n) const;
};

/// Indexes `ds` (only `protocol`'s snapshots when one is given). One
/// serial pass of pointer lookups, then one of limb hashes over the
/// certificates: the first-seen orders are the index's contract, and each
/// pass that uses it does its per-certificate and per-snapshot work on its
/// own pool.
CertificateIndex index_certificates(const ScanDataset& ds,
                                    const Protocol* protocol = nullptr);

}  // namespace weakkeys::netsim

// The per-certificate facts every paper output counts hosts by: the
// implementation label and whether the key was factored (DESIGN.md §5r).
// A run computes them once per certificate; outputs read them per record
// by (snapshot, record) slot through the certificate index.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fingerprint/subject_rules.hpp"
#include "netsim/dataset.hpp"

namespace weakkeys::analysis {

/// A factored modulus, with what fingerprinting found for it.
struct FactoredKey {
  /// Its modulus id in the certificate index the facts are built over.
  std::uint32_t modulus = netsim::CertificateIndex::kNone;
  /// In a degenerate-generator clique: its certificates are IBM RSA-II.
  bool clique = false;
  /// Shared-prime vendor for its certificates without a subject label.
  std::string extrapolated;
};

struct CertificateFacts {
  static constexpr std::uint32_t kUnlabeled = ~std::uint32_t{0};

  netsim::CertificateIndex index;
  /// Each distinct label once, in the order of its first certificate.
  std::vector<fingerprint::VendorLabel> labels;
  /// Per certificate, in index order: its position in `labels`, or
  /// kUnlabeled.
  std::vector<std::uint32_t> label_of;
  /// Per certificate: 1 when its modulus was factored.
  std::vector<std::uint8_t> vulnerable;

  /// `label`'s position in `labels`, appended when new.
  std::uint32_t intern(const fingerprint::VendorLabel& label);

  /// The certificate of snapshot `s` record `r` (CertificateIndex::kNone
  /// for none); label_id and is_vulnerable take kNone too.
  [[nodiscard]] std::uint32_t cert(std::size_t s, std::size_t r) const {
    return index.slots[s][r];
  }
  [[nodiscard]] std::uint32_t label_id(std::uint32_t c) const {
    return c == netsim::CertificateIndex::kNone ? kUnlabeled : label_of[c];
  }
  [[nodiscard]] bool is_vulnerable(std::uint32_t c) const {
    return c != netsim::CertificateIndex::kNone && vulnerable[c] != 0;
  }
};

/// The facts over the certificates of `index`; `subject_labels` line up
/// with it (SubjectRules::classify_all). A certificate's label is the
/// first that applies of: IBM RSA-II for a clique modulus, its subject
/// label, its modulus's extrapolated vendor. It is vulnerable when its
/// modulus is in `factored`. Each certificate reads its key by modulus id,
/// and label ids are assigned in index order.
CertificateFacts build_certificate_facts(
    netsim::CertificateIndex index,
    const std::vector<std::optional<fingerprint::VendorLabel>>& subject_labels,
    const std::vector<FactoredKey>& factored);

}  // namespace weakkeys::analysis

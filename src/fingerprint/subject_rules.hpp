// Certificate-subject fingerprinting (paper Section 3.3.1).
//
// Maps a certificate (plus the HTTPS banner, when one was captured) to a
// vendor/model label using only externally observable data — never the
// simulation's ground truth. The standard rule set transcribes the heuristics
// the paper describes: "O=vendor" distinguished names, Cisco's model-bearing
// OU, Juniper's constant "CN=system generated", McAfee's default subject plus
// SnapGear banner, and the Fritz!Box domain patterns.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cert/certificate.hpp"
#include "netsim/dataset.hpp"
#include "util/cancellation.hpp"

namespace weakkeys::fingerprint {

struct VendorLabel {
  std::string vendor;
  std::string model;   ///< may be empty when only the vendor is identifiable
  std::string method;  ///< which heuristic fired ("subject", "banner", ...)

  friend bool operator==(const VendorLabel&, const VendorLabel&) = default;
};

class SubjectRules {
 public:
  /// A rule: subject/SAN/banner predicate -> label.
  struct Rule {
    std::string name;
    std::function<std::optional<VendorLabel>(const cert::Certificate&,
                                             const std::string& banner)>
        match;
  };

  void add_rule(Rule rule) { rules_.push_back(std::move(rule)); }

  /// First matching rule wins (rules are ordered most-specific first).
  [[nodiscard]] std::optional<VendorLabel> classify(
      const cert::Certificate& cert, const std::string& banner = "") const;

  /// classify() of each certificate of `index`, with the banner of the
  /// first record that shows it: on `pool` when one is given, polling
  /// `cancel`. The labels line up with `index.first`.
  [[nodiscard]] std::vector<std::optional<VendorLabel>> classify_all(
      const netsim::ScanDataset& dataset,
      const netsim::CertificateIndex& index, util::ThreadPool* pool = nullptr,
      const util::CancellationToken* cancel = nullptr) const;

  /// The paper's heuristics, expressed against this reproduction's
  /// certificate corpus.
  static SubjectRules standard();

 private:
  std::vector<Rule> rules_;
};

/// True when the subject is nothing but a dotted IPv4 CN (tens of thousands
/// of Fritz!Box certificates look like this; they get attributed via shared
/// prime factors instead).
bool subject_is_bare_ip(const cert::Certificate& cert);

}  // namespace weakkeys::fingerprint

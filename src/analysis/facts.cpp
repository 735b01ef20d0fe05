#include "analysis/facts.hpp"

#include <algorithm>

namespace weakkeys::analysis {

std::uint32_t CertificateFacts::intern(const fingerprint::VendorLabel& label) {
  const auto it = std::find(labels.begin(), labels.end(), label);
  if (it == labels.end()) {
    labels.push_back(label);
    return static_cast<std::uint32_t>(labels.size() - 1);
  }
  return static_cast<std::uint32_t>(it - labels.begin());
}

CertificateFacts build_certificate_facts(
    netsim::CertificateIndex index,
    const std::vector<std::optional<fingerprint::VendorLabel>>& subject_labels,
    const std::vector<FactoredKey>& factored) {
  std::vector<const FactoredKey*> key_of_modulus(index.moduli());
  for (const FactoredKey& key : factored) key_of_modulus[key.modulus] = &key;

  CertificateFacts facts{std::move(index), {}, {}, {}};
  for (std::size_t i = 0; i < facts.index.size(); ++i) {
    const FactoredKey* key = key_of_modulus[facts.index.modulus_of[i]];
    std::optional<fingerprint::VendorLabel> label = subject_labels[i];
    if (key != nullptr && key->clique) {
      label = {"IBM", "RSA-II", "prime-clique"};
    } else if (!label && key != nullptr && !key->extrapolated.empty()) {
      label = {key->extrapolated, "", "shared-prime"};
    }
    facts.label_of.push_back(label ? facts.intern(*label)
                                   : CertificateFacts::kUnlabeled);
    facts.vulnerable.push_back(key != nullptr);
  }
  return facts;
}

}  // namespace weakkeys::analysis

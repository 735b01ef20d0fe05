#include "analysis/facts.hpp"

#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "util/thread_pool.hpp"

namespace weakkeys::analysis {

namespace {

/// Hashes a modulus by its limbs, so a lookup renders nothing.
struct LimbHash {
  std::size_t operator()(const bn::BigInt& n) const {
    const auto limbs = n.limbs();
    return std::hash<std::string_view>{}(std::string_view(
        reinterpret_cast<const char*>(limbs.data()), limbs.size_bytes()));
  }
};

}  // namespace

std::uint32_t CertificateFacts::intern(const fingerprint::VendorLabel& label) {
  const auto it = std::find(labels.begin(), labels.end(), label);
  if (it == labels.end()) {
    labels.push_back(label);
    return static_cast<std::uint32_t>(labels.size() - 1);
  }
  return static_cast<std::uint32_t>(it - labels.begin());
}

CertificateFacts build_certificate_facts(
    const netsim::ScanDataset& dataset, netsim::CertificateIndex index,
    const std::vector<std::optional<fingerprint::VendorLabel>>& subject_labels,
    const std::vector<FactoredKey>& factored, util::ThreadPool* pool,
    const util::CancellationToken* cancel) {
  std::unordered_map<bn::BigInt, const FactoredKey*, LimbHash> key_of_modulus;
  for (const FactoredKey& key : factored) key_of_modulus.emplace(key.n, &key);
  std::vector<const FactoredKey*> key_of(index.size());
  util::parallel_for_blocks(
      pool, index.size(), 256,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const auto it =
              key_of_modulus.find(index.first_record(dataset, i).cert().key.n);
          if (it != key_of_modulus.end()) key_of[i] = it->second;
        }
      },
      cancel);

  CertificateFacts facts{std::move(index), {}, {}, {}};
  for (std::size_t i = 0; i < key_of.size(); ++i) {
    const FactoredKey* key = key_of[i];
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

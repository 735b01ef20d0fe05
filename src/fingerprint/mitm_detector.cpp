#include "fingerprint/mitm_detector.hpp"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace weakkeys::fingerprint {

std::vector<MitmCandidate> detect_fixed_key_mitm(
    const netsim::ScanDataset& dataset,
    const std::vector<std::string>& factored_hex, const MitmOptions& options) {
  struct Stats {
    std::string hex;
    bn::BigInt modulus;
    std::vector<std::uint32_t> ips;  // one per record; made distinct below
    std::set<std::string> subjects;
  };
  // Records share certificates: render each certificate's modulus and
  // subject once, and give each record's certificate its modulus slot.
  std::vector<Stats> by_modulus;
  std::unordered_map<std::string, std::size_t> slot_of_hex;
  std::unordered_map<const cert::Certificate*, std::size_t> slot_of_cert;
  for (const auto& snap : dataset.snapshots) {
    if (snap.protocol != netsim::Protocol::kHttps) continue;
    for (const auto& rec : snap.records) {
      auto [cert_slot, fresh] =
          slot_of_cert.try_emplace(rec.certificate.get(), 0);
      if (fresh) {
        const auto& c = rec.cert();
        std::string hex = c.key.n.to_hex();
        const auto [hex_slot, new_modulus] =
            slot_of_hex.try_emplace(hex, by_modulus.size());
        if (new_modulus) by_modulus.push_back(Stats{std::move(hex), c.key.n});
        cert_slot->second = hex_slot->second;
        by_modulus[hex_slot->second].subjects.insert(c.subject.to_string());
      }
      by_modulus[cert_slot->second].ips.push_back(rec.ip.value());
    }
  }
  // Candidates in modulus-hex order, so the distinct_ips sort below sees
  // its ties in a fixed order.
  std::sort(by_modulus.begin(), by_modulus.end(),
            [](const Stats& a, const Stats& b) { return a.hex < b.hex; });

  const std::unordered_set<std::string> factored(factored_hex.begin(),
                                                 factored_hex.end());
  std::vector<MitmCandidate> out;
  for (auto& stats : by_modulus) {
    const std::size_t records = stats.ips.size();
    std::sort(stats.ips.begin(), stats.ips.end());
    const std::size_t distinct_ips = static_cast<std::size_t>(
        std::unique(stats.ips.begin(), stats.ips.end()) - stats.ips.begin());
    if (distinct_ips < options.min_ips) continue;
    if (stats.subjects.size() < options.min_subjects) continue;
    out.push_back(MitmCandidate{stats.modulus, distinct_ips,
                                stats.subjects.size(), records,
                                factored.contains(stats.hex)});
  }
  std::sort(out.begin(), out.end(),
            [](const MitmCandidate& a, const MitmCandidate& b) {
              return a.distinct_ips > b.distinct_ips;
            });
  return out;
}

}  // namespace weakkeys::fingerprint

#include "fingerprint/mitm_detector.hpp"

#include <algorithm>
#include <set>
#include <string_view>
#include <unordered_set>

#include "util/thread_pool.hpp"

namespace weakkeys::fingerprint {

std::vector<MitmCandidate> detect_fixed_key_mitm(
    const netsim::ScanDataset& dataset,
    const std::vector<std::string>& factored_hex, const MitmOptions& options,
    util::ThreadPool* pool, const util::CancellationToken* cancel,
    const netsim::CertificateIndex* index) {
  using netsim::CertificateIndex;
  constexpr netsim::Protocol kHttps = netsim::Protocol::kHttps;
  const auto is_https = [&](std::size_t s) {
    return dataset.snapshots[s].protocol == kHttps;
  };
  CertificateIndex own;
  if (index == nullptr) {
    own = netsim::index_certificates(dataset, &kHttps);
    index = &own;
  }

  // The certificates HTTPS records show, in index order.
  std::vector<bool> shown(index->size());
  for (std::size_t s = 0; s < dataset.snapshots.size(); ++s) {
    if (!is_https(s)) continue;
    for (const std::uint32_t slot : index->slots[s]) {
      if (slot != CertificateIndex::kNone) shown[slot] = true;
    }
  }
  std::vector<std::uint32_t> certs;
  for (std::size_t i = 0; i < shown.size(); ++i) {
    if (shown[i]) certs.push_back(static_cast<std::uint32_t>(i));
  }
  const std::size_t n = certs.size();

  // Records share certificates: render each certificate's subject once,
  // and group the certificates by modulus id.
  std::vector<std::string> subject(n);
  util::parallel_for_blocks(
      pool, n, 256,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          subject[i] =
              index->first_record(dataset, certs[i]).cert().subject.to_string();
        }
      },
      cancel);
  struct Stats {
    std::set<std::string_view> subjects;
    // The rest is set for candidates only.
    const bn::BigInt* modulus = nullptr;
    std::string hex;
    std::vector<std::uint32_t> ips;  // one per record; made distinct below
  };
  std::vector<Stats> by_modulus(index->moduli());
  for (std::size_t i = 0; i < n; ++i) {
    by_modulus[index->modulus_of[certs[i]]].subjects.insert(subject[i]);
  }

  // Only a modulus seen under enough subjects can be a candidate, so only
  // those have their records' IPs gathered.
  std::vector<std::uint32_t> candidate_of(by_modulus.size(),
                                          CertificateIndex::kNone);
  std::vector<Stats*> candidates;
  for (std::uint32_t m = 0; m < by_modulus.size(); ++m) {
    Stats& stats = by_modulus[m];
    if (stats.subjects.size() < options.min_subjects) continue;
    candidate_of[m] = static_cast<std::uint32_t>(candidates.size());
    stats.modulus = &index->modulus(dataset, m);
    stats.hex = stats.modulus->to_hex();
    candidates.push_back(&stats);
  }
  if (!candidates.empty()) {
    // (candidate, IP) per record, gathered per snapshot and appended in
    // snapshot order.
    std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> hits(
        dataset.snapshots.size());
    util::parallel_for(
        pool, dataset.snapshots.size(),
        [&](std::size_t s) {
          if (!is_https(s)) return;
          const auto& records = dataset.snapshots[s].records;
          const auto& slots = index->slots[s];
          for (std::size_t r = 0; r < records.size(); ++r) {
            if (slots[r] == CertificateIndex::kNone) continue;
            const std::uint32_t c =
                candidate_of[index->modulus_of[slots[r]]];
            if (c != CertificateIndex::kNone) {
              hits[s].emplace_back(c, records[r].ip.value());
            }
          }
        },
        cancel);
    for (const auto& snapshot_hits : hits) {
      for (const auto& [c, ip] : snapshot_hits) candidates[c]->ips.push_back(ip);
    }
  }
  // Candidates in modulus-hex order, so the distinct_ips sort below sees
  // its ties in a fixed order.
  std::sort(candidates.begin(), candidates.end(),
            [](const Stats* a, const Stats* b) { return a->hex < b->hex; });

  const std::unordered_set<std::string> factored(factored_hex.begin(),
                                                 factored_hex.end());
  std::vector<MitmCandidate> out;
  for (Stats* stats : candidates) {
    const std::size_t records = stats->ips.size();
    std::sort(stats->ips.begin(), stats->ips.end());
    const std::size_t distinct_ips = static_cast<std::size_t>(
        std::unique(stats->ips.begin(), stats->ips.end()) - stats->ips.begin());
    if (distinct_ips < options.min_ips) continue;
    out.push_back(MitmCandidate{*stats->modulus, distinct_ips,
                                stats->subjects.size(), records,
                                factored.contains(stats->hex)});
  }
  std::sort(out.begin(), out.end(),
            [](const MitmCandidate& a, const MitmCandidate& b) {
              return a.distinct_ips > b.distinct_ips;
            });
  return out;
}

}  // namespace weakkeys::fingerprint

#include "analysis/chains.hpp"

#include <algorithm>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "util/thread_pool.hpp"

namespace weakkeys::analysis {

netsim::ScanSnapshot exclude_intermediates(netsim::ScanSnapshot snap) {
  netsim::ScanDataset one;
  one.snapshots.push_back(std::move(snap));
  return std::move(exclude_intermediates(std::move(one)).snapshots.front());
}

netsim::ScanDataset exclude_intermediates(
    netsim::ScanDataset dataset, util::ThreadPool* pool,
    const util::CancellationToken* cancel) {
  using netsim::CertificateIndex;
  const CertificateIndex index = netsim::index_certificates(dataset);
  const std::size_t n = index.size();

  // DNs rendered once per certificate. A DN is named by an id only when
  // it issued some certificate: a subject no one issued under can never
  // sit above a leaf.
  std::vector<std::string> subjects(n);
  std::vector<std::optional<std::string>> issuers(n);  // none: self-signed
  util::parallel_for_blocks(
      pool, n, 256,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const auto& c = index.first_record(dataset, i).cert();
          subjects[i] = c.subject.to_string();
          if (!c.is_self_signed()) issuers[i] = c.issuer.to_string();
        }
      },
      cancel);
  std::unordered_map<std::string_view, std::uint32_t> issuer_ids;
  std::vector<std::uint32_t> issuer_id(n, CertificateIndex::kNone);
  std::vector<std::uint32_t> subject_id(n, CertificateIndex::kNone);
  for (std::size_t i = 0; i < n; ++i) {
    if (!issuers[i]) continue;
    issuer_id[i] =
        issuer_ids
            .try_emplace(*issuers[i],
                         static_cast<std::uint32_t>(issuer_ids.size()))
            .first->second;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = issuer_ids.find(subjects[i]);
    if (it != issuer_ids.end()) subject_id[i] = it->second;
  }

  const auto key = [](const netsim::HostRecord& rec, std::uint32_t id) {
    return (std::uint64_t{rec.ip.value()} << 32) | id;
  };
  util::parallel_for(
      pool, dataset.snapshots.size(),
      [&](std::size_t s) {
        auto& records = dataset.snapshots[s].records;
        const auto& slots = index.slots[s];
        // (IP, issuer DN) of every non-self-signed certificate.
        std::vector<std::uint64_t> issued_at_ip;
        for (std::size_t r = 0; r < records.size(); ++r) {
          const std::uint32_t slot = slots[r];
          if (slot == CertificateIndex::kNone) continue;
          if (issuer_id[slot] == CertificateIndex::kNone) continue;
          issued_at_ip.push_back(key(records[r], issuer_id[slot]));
        }
        std::sort(issued_at_ip.begin(), issued_at_ip.end());
        // Survivors move down in place, in order. A record without a
        // certificate is quarantine input, never analysis input; a
        // certificate that issued another one seen at its IP is dropped.
        std::size_t kept = 0;
        for (std::size_t r = 0; r < records.size(); ++r) {
          const std::uint32_t slot = slots[r];
          if (slot == CertificateIndex::kNone) continue;
          const std::uint32_t id = subject_id[slot];
          if (id != CertificateIndex::kNone &&
              std::binary_search(issued_at_ip.begin(), issued_at_ip.end(),
                                 key(records[r], id))) {
            continue;
          }
          if (kept != r) records[kept] = std::move(records[r]);
          ++kept;
        }
        records.erase(records.begin() + static_cast<std::ptrdiff_t>(kept),
                      records.end());
      },
      cancel);
  return dataset;
}

}  // namespace weakkeys::analysis

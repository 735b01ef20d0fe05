#include "netsim/dataset.hpp"

#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "util/thread_pool.hpp"

namespace weakkeys::netsim {

std::string to_string(Protocol p) {
  // Exhaustive switch with no default: adding a Protocol enumerator without
  // a case here is a compile-time -Wswitch diagnostic. Out-of-enum values
  // (cast from corrupted serialized bytes) fall through to the total
  // fallback instead of aborting mid-study.
  switch (p) {
    case Protocol::kHttps:
      return "HTTPS";
    case Protocol::kSsh:
      return "SSH";
    case Protocol::kImaps:
      return "IMAPS";
    case Protocol::kPop3s:
      return "POP3S";
    case Protocol::kSmtps:
      return "SMTPS";
  }
  return "unknown-protocol(" + std::to_string(static_cast<std::uint32_t>(p)) +
         ")";
}

std::optional<Protocol> protocol_from_index(std::uint32_t value) {
  if (value >= kProtocolCount) return std::nullopt;
  return static_cast<Protocol>(value);
}

std::size_t ScanDataset::total_host_records() const {
  std::size_t total = 0;
  for (const auto& snap : snapshots) total += snap.records.size();
  return total;
}

CertificateIndex index_certificates(const ScanDataset& ds,
                                    const Protocol* protocol) {
  CertificateIndex index;
  index.slots.resize(ds.snapshots.size());
  std::unordered_map<const cert::Certificate*, std::uint32_t> slot_of;
  for (std::size_t s = 0; s < ds.snapshots.size(); ++s) {
    const ScanSnapshot& snap = ds.snapshots[s];
    auto& slots = index.slots[s];
    slots.assign(snap.records.size(), CertificateIndex::kNone);
    if (protocol && snap.protocol != *protocol) continue;
    for (std::size_t r = 0; r < snap.records.size(); ++r) {
      const cert::Certificate* c = snap.records[r].certificate.get();
      if (c == nullptr) continue;  // undecoded dirty-corpus bytes
      const auto [it, fresh] = slot_of.try_emplace(
          c, static_cast<std::uint32_t>(index.first.size()));
      if (fresh) {
        index.first.push_back({static_cast<std::uint32_t>(s),
                               static_cast<std::uint32_t>(r)});
      }
      slots[r] = it->second;
    }
  }
  return index;
}

namespace {

std::vector<bn::BigInt> collect_moduli(const ScanDataset& ds,
                                       const CertificateIndex& index,
                                       util::ThreadPool* pool) {
  std::vector<std::string> hex(index.size());
  util::parallel_for_blocks(pool, index.size(), 256,
                            [&](std::size_t begin, std::size_t end) {
                              for (std::size_t i = begin; i < end; ++i) {
                                hex[i] = index.first_record(ds, i)
                                             .cert()
                                             .key.n.to_hex();
                              }
                            });
  std::unordered_set<std::string_view> seen;
  std::vector<bn::BigInt> out;
  for (std::size_t i = 0; i < index.size(); ++i) {
    if (seen.insert(hex[i]).second) {
      out.push_back(index.first_record(ds, i).cert().key.n);
    }
  }
  return out;
}

}  // namespace

std::vector<bn::BigInt> ScanDataset::distinct_moduli(
    util::ThreadPool* pool, const CertificateIndex* index) const {
  if (index != nullptr) return collect_moduli(*this, *index, pool);
  return collect_moduli(*this, index_certificates(*this), pool);
}

std::vector<bn::BigInt> ScanDataset::distinct_moduli(Protocol p) const {
  return collect_moduli(*this, index_certificates(*this, &p), nullptr);
}

}  // namespace weakkeys::netsim

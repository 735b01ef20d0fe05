#include "netsim/dataset.hpp"

#include <bit>
#include <functional>
#include <string_view>
#include <unordered_map>

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

std::size_t CertificateIndex::entry(const ScanDataset& ds,
                                    const bn::BigInt& n) const {
  // Linear probing from a hash of the limbs' bytes.
  const auto limbs = n.limbs();
  const std::size_t hash = std::hash<std::string_view>{}(std::string_view(
      reinterpret_cast<const char*>(limbs.data()), limbs.size_bytes()));
  const std::size_t mask = modulus_table.size() - 1;
  for (std::size_t e = hash & mask;; e = (e + 1) & mask) {
    if (modulus_table[e] == kNone || modulus(ds, modulus_table[e]) == n) {
      return e;
    }
  }
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

  // Certificates are in first-seen order, so numbering their moduli in
  // that order numbers them by first record. The table stays half empty.
  index.modulus_table.assign(std::bit_ceil(2 * index.size() + 1),
                             CertificateIndex::kNone);
  index.modulus_of.reserve(index.size());
  for (std::size_t c = 0; c < index.size(); ++c) {
    const bn::BigInt& n = index.first_record(ds, c).cert().key.n;
    std::uint32_t& m = index.modulus_table[index.entry(ds, n)];
    if (m == CertificateIndex::kNone) {
      m = static_cast<std::uint32_t>(index.moduli());
      index.modulus_first.push_back(static_cast<std::uint32_t>(c));
    }
    index.modulus_of.push_back(m);
  }
  return index;
}

std::vector<bn::BigInt> ScanDataset::distinct_moduli(
    const CertificateIndex* index) const {
  const CertificateIndex own =
      index ? CertificateIndex{} : index_certificates(*this);
  if (index == nullptr) index = &own;
  std::vector<bn::BigInt> out;
  for (std::uint32_t m = 0; m < index->moduli(); ++m) {
    out.push_back(index->modulus(*this, m));
  }
  return out;
}

}  // namespace weakkeys::netsim

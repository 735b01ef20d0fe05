#include "analysis/chains.hpp"

#include <map>
#include <set>
#include <utility>

namespace weakkeys::analysis {

netsim::ScanSnapshot exclude_intermediates(netsim::ScanSnapshot snap) {
  // issuer DNs of non-self-signed certificates, per IP.
  std::map<std::uint32_t, std::set<std::string>> issuers_at_ip;
  for (const auto& rec : snap.records) {
    if (!rec.has_cert()) continue;  // undecoded raw capture: no chain info
    const auto& c = rec.cert();
    if (!c.is_self_signed()) {
      issuers_at_ip[rec.ip.value()].insert(c.issuer.to_string());
    }
  }

  // Survivors move down in place, in order.
  std::erase_if(snap.records, [&issuers_at_ip](const netsim::HostRecord& rec) {
    if (!rec.has_cert()) return true;  // quarantine input, never analysis input
    const auto it = issuers_at_ip.find(rec.ip.value());
    // Drop a certificate that issued another cert seen at the same IP.
    return it != issuers_at_ip.end() &&
           it->second.contains(rec.cert().subject.to_string());
  });
  return snap;
}

netsim::ScanDataset exclude_intermediates(netsim::ScanDataset dataset) {
  for (auto& snap : dataset.snapshots) {
    snap = exclude_intermediates(std::move(snap));
  }
  return dataset;
}

}  // namespace weakkeys::analysis

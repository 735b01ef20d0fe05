// Table 3: earliest (EFF, July 2010) vs latest (Censys, April 2016) HTTPS
// scan — handshakes, distinct certificates, distinct RSA keys.
#include <cstdio>
#include <optional>
#include <set>
#include <utility>

#include "analysis/report.hpp"
#include "common.hpp"

namespace {

struct ScanSummary {
  std::size_t handshakes = 0;
  std::size_t distinct_certs = 0;
  std::size_t distinct_keys = 0;
};

/// Snapshot `s`'s counts. A certificate is told apart by its serial and
/// modulus, a key by its modulus id.
ScanSummary summarize(const weakkeys::netsim::ScanDataset& ds,
                      const weakkeys::netsim::CertificateIndex& index,
                      std::size_t s) {
  const auto& records = ds.snapshots[s].records;
  ScanSummary out;
  out.handshakes = records.size();
  std::set<std::pair<std::uint64_t, std::uint32_t>> certs;
  std::set<std::uint32_t> keys;
  for (std::size_t r = 0; r < records.size(); ++r) {
    const std::uint32_t m = index.modulus_of[index.slots[s][r]];
    certs.emplace(records[r].cert().serial, m);
    keys.insert(m);
  }
  out.distinct_certs = certs.size();
  out.distinct_keys = keys.size();
  return out;
}

}  // namespace

int main() {
  using namespace weakkeys;
  auto& study = bench::shared_study();
  const auto& ds = study.dataset();

  std::optional<std::size_t> first_s, last_s;
  for (std::size_t s = 0; s < ds.snapshots.size(); ++s) {
    if (ds.snapshots[s].protocol != netsim::Protocol::kHttps) continue;
    if (!first_s) first_s = s;
    last_s = s;
  }
  if (!first_s) return 1;
  const netsim::ScanSnapshot* first = &ds.snapshots[*first_s];
  const netsim::ScanSnapshot* last = &ds.snapshots[*last_s];

  const auto& index = study.facts().index;
  const ScanSummary a = summarize(ds, index, *first_s);
  const ScanSummary b = summarize(ds, index, *last_s);

  std::printf("== Table 3: earliest vs latest scan ==\n");
  analysis::TextTable table(
      {"quantity", first->source + " " + first->date.to_string(),
       last->source + " " + last->date.to_string()});
  table.add_row({"TLS handshakes", analysis::with_commas(a.handshakes),
                 analysis::with_commas(b.handshakes)});
  table.add_row({"Distinct certificates", analysis::with_commas(a.distinct_certs),
                 analysis::with_commas(b.distinct_certs)});
  table.add_row({"Distinct RSA keys", analysis::with_commas(a.distinct_keys),
                 analysis::with_commas(b.distinct_keys)});
  std::printf("%s", table.render().c_str());
  std::printf("shape check: ecosystem growth %.1fx over the study "
              "(paper: 11.3M -> 38.0M, 3.4x)\n",
              static_cast<double>(b.handshakes) / static_cast<double>(a.handshakes));
  return 0;
}

// Figure 5 + Sections 3.3.2 / 4.1: IBM Remote Supervisor Adapter II /
// BladeCenter Management Module.
//
// Paper narrative: only 9 primes => 36 possible moduli; 99.5% of identified
// devices carry a clique modulus; the population was already declining by
// 2012 and drops sharply at Heartbleed; apparent "fixes" trace to IP churn,
// not patching (350 of 1,728 ever-vulnerable IPs later served a clean cert —
// with varying subjects, i.e. different devices behind recycled addresses).
#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "common.hpp"

int main() {
  using namespace weakkeys;
  auto& study = bench::shared_study();

  std::printf("== Figure 5: IBM RSA-II / BladeCenter MM ==\n");
  if (study.cliques().empty()) {
    std::printf("no degenerate clique found (unexpected)\n");
    return 1;
  }
  const auto& clique = study.cliques().front();
  std::printf(
      "degenerate generator detected from recovered factors alone: %zu primes, "
      "%zu distinct moduli (max possible %d), density %.2f\n",
      clique.primes.size(), clique.moduli.size(),
      rsa::IbmNinePrimeGenerator::kPossibleModuli, clique.density);

  bench::print_vendor_figure(study, "IBM");

  // Which certificates carry a clique modulus, once per certificate.
  const auto& ds = study.dataset();
  const auto& facts = study.facts();
  std::vector<bool> clique_cert(facts.index.size());
  for (std::size_t c = 0; c < clique_cert.size(); ++c) {
    const auto& n = facts.index.first_record(ds, c).cert().key.n;
    clique_cert[c] = std::find(clique.moduli.begin(), clique.moduli.end(),
                               n) != clique.moduli.end();
  }

  // IP churn evidence: IPs that ever served a clique key and *later* served
  // any non-vulnerable certificate — from any vendor, because recycled DHCP
  // addresses end up in front of unrelated devices (the varying subjects the
  // paper used to rule out patching).
  std::map<std::uint32_t, util::Date> first_clique_sighting;
  std::set<std::uint32_t> churned;
  for (std::size_t s = 0; s < ds.snapshots.size(); ++s) {
    const auto& snap = ds.snapshots[s];
    if (snap.protocol != netsim::Protocol::kHttps) continue;
    for (std::size_t r = 0; r < snap.records.size(); ++r) {
      const std::uint32_t ip = snap.records[r].ip.value();
      const std::uint32_t c = facts.cert(s, r);
      if (c != netsim::CertificateIndex::kNone && clique_cert[c]) {
        first_clique_sighting.try_emplace(ip, snap.date);
      } else if (const auto it = first_clique_sighting.find(ip);
                 it != first_clique_sighting.end() && snap.date > it->second) {
        churned.insert(ip);
      }
    }
  }
  std::printf(
      "\nIPs ever serving a clique key: %zu; later served a different, "
      "non-vulnerable certificate: %zu\n(paper: 350 of 1,728 — explained by "
      "IP churn, and the population decline is devices\ngoing offline, not "
      "being patched)\n",
      first_clique_sighting.size(), churned.size());

  // The Siemens overlap: subject-labeled Siemens certificates carrying an
  // IBM clique modulus (the paper found 2,441 such certificates).
  std::size_t siemens_overlap = 0;
  const auto rules = fingerprint::SubjectRules::standard();
  for (std::size_t c = 0; c < clique_cert.size(); ++c) {
    if (!clique_cert[c]) continue;
    const auto& rec = facts.index.first_record(ds, c);
    const auto label = rules.classify(rec.cert(), rec.banner);
    if (label && label->vendor == "Siemens") ++siemens_overlap;
  }
  std::printf(
      "Siemens-subject certificates using an IBM clique modulus: %zu "
      "(labeled IBM, as in the paper)\n",
      siemens_overlap);
  return 0;
}

// Figure 3 + Section 4.1: Juniper SRX.
//
// Paper narrative to reproduce: the number of vulnerable hosts continued to
// rise for ~two years after Juniper's April/July 2012 advisories; the single
// largest drop — in both vulnerable and total fingerprinted hosts —
// coincides with Heartbleed (April 2014, NetScreen crash reports); per-IP
// certificate histories show roughly balanced vulnerable<->clean transitions
// (1,100 / 1,200 / 250 in the paper) rather than mass patching.
#include <cstdio>

#include "analysis/transitions.hpp"
#include "common.hpp"

int main() {
  using namespace weakkeys;
  auto& study = bench::shared_study();

  std::printf("== Figure 3: Juniper ==\n");
  bench::print_vendor_figure(study, "Juniper");

  const auto counts =
      analysis::count_transitions(study.dataset(), "Juniper", study.facts());
  std::printf(
      "\nper-IP certificate transitions: %zu IPs ever fingerprinted, %zu ever "
      "vulnerable,\n  vulnerable->clean %zu, clean->vulnerable %zu, multiple "
      "switches %zu\n",
      counts.ips_ever, counts.ips_ever_vulnerable, counts.vulnerable_to_clean,
      counts.clean_to_vulnerable, counts.multiple_switches);
  std::printf(
      "shape check (paper): 169k ever / 34k vulnerable; 1,100 v->c, 1,200 "
      "c->v, 250 multi —\nboth directions comparable, i.e. regeneration "
      "churn, not patching.\n");
  return 0;
}

// Figure 4 + Section 4.1: Innominate mGuard.
//
// Paper narrative: despite a June 2012 public advisory, the vulnerable
// population stays roughly constant for four years while the total
// population grows — the fix reached new devices, never deployed ones.
#include <cstdio>

#include "analysis/transitions.hpp"
#include "common.hpp"

int main() {
  using namespace weakkeys;
  auto& study = bench::shared_study();

  std::printf("== Figure 4: Innominate mGuard ==\n");
  bench::print_vendor_figure(study, "Innominate");

  const auto series = study.series_builder().vendor_series("Innominate");
  const auto* at_advisory = series.at_or_before(util::Date(2012, 7, 1));
  const auto* at_end = series.points.empty() ? nullptr : &series.points.back();
  if (at_advisory && at_end) {
    std::printf(
        "\nvulnerable at advisory (2012-07): %zu; at study end: %zu "
        "(flat-ish expected)\ntotal at advisory: %zu; at end: %zu (growth "
        "expected)\n",
        at_advisory->vulnerable_hosts, at_end->vulnerable_hosts,
        at_advisory->total_hosts, at_end->total_hosts);
  }
  const auto counts = analysis::count_transitions(
      study.dataset(), "Innominate", study.facts());
  std::printf(
      "transitions (paper saw 3 v->c, 2 c->v, 1 multi out of 561): "
      "v->c %zu, c->v %zu, multi %zu of %zu ever-vulnerable IPs\n",
      counts.vulnerable_to_clean, counts.clean_to_vulnerable,
      counts.multiple_switches, counts.ips_ever_vulnerable);
  return 0;
}

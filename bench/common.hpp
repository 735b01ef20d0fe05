// Shared configuration for the table/figure reproduction binaries.
//
// The default corpus scale (0.2 of the catalog's 1:1000-of-reality
// populations) keeps the full pipeline — simulation, batch GCD,
// fingerprinting — around a few minutes on one core for the *first* binary
// that runs; every later binary reloads the corpus and factor caches in
// seconds. Every `WEAKKEYS_*` variable set in the environment overrides
// these defaults (StudyConfig::from_env; README has the table).
#pragma once

#include <cstdio>
#include <string>
#include <utility>

#include "core/study.hpp"

namespace weakkeys::bench {

inline core::StudyConfig default_study_config() {
  core::StudyConfig config;
  config.sim.seed = 20160414;
  config.sim.scale = 0.2;
  config.sim.miller_rabin_rounds = 5;
  config.batch_gcd_subsets = 4;
  config.cache_path = "weakkeys_corpus.cache";
  config.log = [](const std::string& message) {
    std::fprintf(stderr, "[study] %s\n", message.c_str());
  };
  return core::StudyConfig::from_env(std::move(config));
}

/// Runs (or reloads) the shared study corpus.
inline core::Study& shared_study() {
  static core::Study study(default_study_config());
  study.run();
  return study;
}

}  // namespace weakkeys::bench

#include "analysis/events.hpp"
#include "analysis/report.hpp"
#include "netsim/catalog.hpp"

namespace weakkeys::bench {

/// Prints one vendor population figure (total + vulnerable series) plus the
/// Heartbleed-window delta the Section 4 discussions rely on.
inline void print_vendor_figure(core::Study& study, const std::string& vendor,
                                const std::string& model = "") {
  const auto series = study.series_builder().vendor_series(vendor, model);
  std::printf("%s", analysis::render_series(series).c_str());
  if (const auto delta = analysis::event_window_delta(
          series, netsim::heartbleed_date(), 2)) {
    std::printf(
        "Heartbleed window (last scan before 2014-04 vs first after +2mo): "
        "total %zu -> %zu (%.0f%%), vulnerable %zu -> %zu (%.0f%%)\n",
        delta->total_before, delta->total_after,
        100.0 * delta->total_drop_fraction(), delta->vulnerable_before,
        delta->vulnerable_after, 100.0 * delta->vulnerable_drop_fraction());
  }
}

}  // namespace weakkeys::bench

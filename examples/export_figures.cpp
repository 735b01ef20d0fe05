// export_figures: machine-readable outputs for external plotting.
//
// Runs (or reloads) the study corpus and writes one CSV per paper figure
// into an output directory, plus a combined per-vendor file — the pipeline
// you would hand to gnuplot/matplotlib to redraw Figures 1 and 3-10.
//
// Usage: ./build/examples/export_figures [output_dir]   (default: figures/)
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "analysis/csv.hpp"
#include "core/study.hpp"
#include "netsim/catalog.hpp"

int main(int argc, char** argv) {
  using namespace weakkeys;
  const std::filesystem::path out_dir = argc > 1 ? argv[1] : "figures";
  std::filesystem::create_directories(out_dir);

  // The environment (WEAKKEYS_*) first, then this example's own settings.
  core::StudyConfig config = core::StudyConfig::from_env();
  config.sim.scale = 0.2;
  config.cache_path = "weakkeys_corpus.cache";
  config.log = [](const std::string& m) {
    std::fprintf(stderr, "[study] %s\n", m.c_str());
  };
  core::Study study(config);
  study.run();
  const auto builder = study.series_builder();

  auto write = [&](const std::string& name,
                   const analysis::VendorSeries& series) {
    const auto path = out_dir / (name + ".csv");
    std::ofstream os(path);
    analysis::write_series_csv(os, series);
    std::fprintf(stderr, "wrote %s (%zu points)\n", path.c_str(),
                 series.points.size());
  };

  write("fig1_overall", builder.overall_series());
  write("fig3_juniper", builder.vendor_series("Juniper"));
  write("fig4_innominate", builder.vendor_series("Innominate"));
  write("fig5_ibm", builder.vendor_series("IBM"));
  write("fig6_cisco", builder.vendor_series("Cisco"));
  for (const auto& eol : netsim::cisco_eol_dates()) {
    write("fig7_cisco_" + eol.model, builder.vendor_series("Cisco", eol.model));
  }
  write("fig8_hp_ilo", builder.vendor_series("Hewlett-Packard"));
  std::vector<analysis::VendorSeries> fig9, fig10;
  for (const char* vendor : {"Thomson", "Fritz!Box", "Linksys", "Fortinet",
                             "ZyXEL", "Dell", "Kronos", "Xerox", "McAfee",
                             "TP-LINK"}) {
    fig9.push_back(builder.vendor_series(vendor));
  }
  for (const char* vendor :
       {"ADTRAN", "D-Link", "Huawei", "Sangfor", "Schmid Telecom"}) {
    fig10.push_back(builder.vendor_series(vendor));
  }
  {
    std::ofstream os(out_dir / "fig9_no_response.csv");
    analysis::write_multi_series_csv(os, fig9);
  }
  {
    std::ofstream os(out_dir / "fig10_newly_vulnerable.csv");
    analysis::write_multi_series_csv(os, fig10);
  }
  std::fprintf(stderr, "wrote %s and %s\n",
               (out_dir / "fig9_no_response.csv").c_str(),
               (out_dir / "fig10_newly_vulnerable.csv").c_str());
  std::printf("exported figure CSVs to %s\n", out_dir.c_str());
  return 0;
}

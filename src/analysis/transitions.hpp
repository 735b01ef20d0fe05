// Per-IP vulnerability transition analysis (paper Section 4.1: the 1,100 /
// 1,200 / 250 Juniper transitions; the Innominate 2 / 3 / 1; the IBM IP-churn
// finding).
#pragma once

#include <string>

#include "analysis/facts.hpp"
#include "netsim/dataset.hpp"

namespace weakkeys::analysis {

struct TransitionCounts {
  std::size_t ips_ever = 0;             ///< IPs that ever served this vendor
  std::size_t ips_ever_vulnerable = 0;  ///< ... a vulnerable key
  std::size_t vulnerable_to_clean = 0;  ///< exactly one v->c switch
  std::size_t clean_to_vulnerable = 0;  ///< exactly one c->v switch
  std::size_t multiple_switches = 0;    ///< flapped more than once
};

/// Tracks each IP's vulnerability status across HTTPS scans for records
/// labeled with `vendor` in `facts` (built over `dataset`) and counts
/// status changes.
TransitionCounts count_transitions(const netsim::ScanDataset& dataset,
                                   const std::string& vendor,
                                   const CertificateFacts& facts);

}  // namespace weakkeys::analysis

#include "analysis/transitions.hpp"

#include <map>
#include <vector>

namespace weakkeys::analysis {

TransitionCounts count_transitions(const netsim::ScanDataset& dataset,
                                   const std::string& vendor,
                                   const CertificateFacts& facts) {
  // Status history per IP, in snapshot order (snapshots are date-sorted).
  std::map<std::uint32_t, std::vector<bool>> history;
  for (std::size_t s = 0; s < dataset.snapshots.size(); ++s) {
    const auto& snap = dataset.snapshots[s];
    if (snap.protocol != netsim::Protocol::kHttps) continue;
    for (std::size_t r = 0; r < snap.records.size(); ++r) {
      const std::uint32_t c = facts.cert(s, r);
      const std::uint32_t label = facts.label_id(c);
      if (label == CertificateFacts::kUnlabeled ||
          facts.labels[label].vendor != vendor) {
        continue;
      }
      history[snap.records[r].ip.value()].push_back(facts.is_vulnerable(c));
    }
  }

  TransitionCounts counts;
  counts.ips_ever = history.size();
  for (const auto& [ip, states] : history) {
    bool ever_vulnerable = false;
    std::size_t switches = 0;
    bool first_direction_v_to_c = false;
    for (std::size_t i = 0; i < states.size(); ++i) {
      ever_vulnerable |= states[i];
      if (i > 0 && states[i] != states[i - 1]) {
        if (switches == 0) first_direction_v_to_c = states[i - 1];
        ++switches;
      }
    }
    if (ever_vulnerable) ++counts.ips_ever_vulnerable;
    if (switches == 1) {
      if (first_direction_v_to_c) {
        ++counts.vulnerable_to_clean;
      } else {
        ++counts.clean_to_vulnerable;
      }
    } else if (switches > 1) {
      ++counts.multiple_switches;
    }
  }
  return counts;
}

}  // namespace weakkeys::analysis

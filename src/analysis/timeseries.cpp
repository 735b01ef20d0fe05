#include "analysis/timeseries.hpp"

#include <algorithm>
#include <map>

namespace weakkeys::analysis {

const SeriesPoint* VendorSeries::at_or_before(const util::Date& d) const {
  const SeriesPoint* best = nullptr;
  for (const auto& p : points) {
    if (p.date <= d && (!best || p.date > best->date)) best = &p;
  }
  return best;
}

std::size_t VendorSeries::peak_vulnerable() const {
  std::size_t peak = 0;
  for (const auto& p : points) peak = std::max(peak, p.vulnerable_hosts);
  return peak;
}

std::size_t VendorSeries::peak_total() const {
  std::size_t peak = 0;
  for (const auto& p : points) peak = std::max(peak, p.total_hosts);
  return peak;
}

TimeSeriesBuilder::TimeSeriesBuilder(const netsim::ScanDataset& dataset,
                                     const CertificateFacts& facts) {
  overall_.vendor = "(all)";
  std::vector<std::size_t> https;
  for (std::size_t s = 0; s < dataset.snapshots.size(); ++s) {
    const auto& snap = dataset.snapshots[s];
    if (snap.protocol != netsim::Protocol::kHttps) continue;
    https.push_back(s);
    overall_.points.push_back({snap.date, snap.source, 0, 0});
  }
  for (const auto& label : facts.labels) {
    by_label_.push_back({label.vendor, label.model, overall_.points});
  }
  for (std::size_t i = 0; i < https.size(); ++i) {
    overall_.points[i].total_hosts = facts.index.slots[https[i]].size();
    for (const std::uint32_t c : facts.index.slots[https[i]]) {
      const bool vulnerable = facts.is_vulnerable(c);
      overall_.points[i].vulnerable_hosts += vulnerable;
      if (facts.label_id(c) == CertificateFacts::kUnlabeled) continue;
      SeriesPoint& point = by_label_[facts.label_id(c)].points[i];
      ++point.total_hosts;
      point.vulnerable_hosts += vulnerable;
    }
  }
}

VendorSeries TimeSeriesBuilder::vendor_series(const std::string& vendor,
                                              const std::string& model) const {
  VendorSeries series{vendor, model, overall_.points};
  for (auto& point : series.points) {
    point.total_hosts = point.vulnerable_hosts = 0;
  }
  for (const VendorSeries& row : by_label_) {
    if (row.vendor != vendor) continue;
    if (!model.empty() && row.model != model) continue;
    for (std::size_t i = 0; i < row.points.size(); ++i) {
      series.points[i].total_hosts += row.points[i].total_hosts;
      series.points[i].vulnerable_hosts += row.points[i].vulnerable_hosts;
    }
  }
  return series;
}

VendorSeries TimeSeriesBuilder::overall_series() const { return overall_; }

std::vector<std::string> TimeSeriesBuilder::vendors() const {
  std::map<std::string, std::size_t> vulnerable_count;
  for (const VendorSeries& row : by_label_) {
    if (row.peak_total() == 0) continue;  // labels no HTTPS host
    auto& count = vulnerable_count[row.vendor];
    for (const auto& point : row.points) count += point.vulnerable_hosts;
  }
  std::vector<std::pair<std::string, std::size_t>> items(
      vulnerable_count.begin(), vulnerable_count.end());
  std::sort(items.begin(), items.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::vector<std::string> out;
  out.reserve(items.size());
  for (auto& [vendor, count] : items) out.push_back(vendor);
  return out;
}

}  // namespace weakkeys::analysis

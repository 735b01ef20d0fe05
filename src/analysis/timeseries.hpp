// Per-vendor longitudinal series: total fingerprinted hosts and vulnerable
// hosts per scan — the quantity plotted in Figures 1, 3-6 and 8-10.
#pragma once

#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/facts.hpp"
#include "netsim/dataset.hpp"

namespace weakkeys::analysis {

/// The set of factored (vulnerable) moduli, keyed by hex.
class VulnerableSet {
 public:
  void insert(const bn::BigInt& n) { hex_.insert(n.to_hex()); }
  [[nodiscard]] bool contains(const bn::BigInt& n) const {
    return hex_.contains(n.to_hex());
  }
  [[nodiscard]] std::size_t size() const { return hex_.size(); }
  [[nodiscard]] const std::unordered_set<std::string>& hex() const {
    return hex_;
  }

 private:
  std::unordered_set<std::string> hex_;
};

struct SeriesPoint {
  util::Date date;
  std::string source;
  std::size_t total_hosts = 0;
  std::size_t vulnerable_hosts = 0;
};

struct VendorSeries {
  std::string vendor;
  std::string model;  ///< empty = all models
  std::vector<SeriesPoint> points;

  [[nodiscard]] const SeriesPoint* at_or_before(const util::Date& d) const;
  [[nodiscard]] std::size_t peak_vulnerable() const;
  [[nodiscard]] std::size_t peak_total() const;
};

/// The per-snapshot host counts of every label: one pass over the HTTPS
/// records fills a (label x snapshot) table, and each series is a sum over
/// its rows.
class TimeSeriesBuilder {
 public:
  /// `facts` must be built over `dataset`; the builder keeps neither.
  TimeSeriesBuilder(const netsim::ScanDataset& dataset,
                    const CertificateFacts& facts);

  /// Series over one vendor's fingerprinted hosts (HTTPS snapshots only).
  /// `model` filters to one product when non-empty.
  [[nodiscard]] VendorSeries vendor_series(const std::string& vendor,
                                           const std::string& model = "") const;

  /// Series over every HTTPS host regardless of label (Figure 1).
  [[nodiscard]] VendorSeries overall_series() const;

  /// Every vendor labeling an HTTPS host, most-vulnerable first.
  [[nodiscard]] std::vector<std::string> vendors() const;

 private:
  /// One point per HTTPS snapshot, counting every host.
  VendorSeries overall_;
  /// The same points per label, counting the hosts it labels.
  std::vector<VendorSeries> by_label_;
};

}  // namespace weakkeys::analysis

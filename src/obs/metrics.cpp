#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace weakkeys::obs {

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  if (bounds_.empty()) bounds_.push_back(1);
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
}

void Histogram::record(std::uint64_t value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<std::uint64_t> Histogram::default_latency_bounds_us() {
  // 1us .. ~67s in powers of four: 14 buckets plus overflow covers
  // everything from one bignum multiply to a full remainder-tree pass.
  std::vector<std::uint64_t> bounds;
  for (std::uint64_t b = 1; b <= (1ULL << 26); b *= 4) bounds.push_back(b);
  return bounds;
}

std::vector<std::uint64_t> Histogram::default_bytes_bounds() {
  // 16B .. 1GiB in powers of two: 27 buckets plus overflow spans a single
  // limb vector header up to a whole product-tree level.
  std::vector<std::uint64_t> bounds;
  for (std::uint64_t b = 16; b <= (1ULL << 30); b *= 2) bounds.push_back(b);
  return bounds;
}

std::uint64_t MetricsSnapshot::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<std::uint64_t> bounds) {
  std::lock_guard lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramValue v;
    v.bounds = h->bounds();
    v.bucket_counts = h->bucket_counts();
    v.count = h->count();
    v.sum = h->sum();
    v.max = h->max();
    snap.histograms[name] = std::move(v);
  }
  return snap;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  const MetricsSnapshot snap = snapshot();
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(name) + "\":" + std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(name) + "\":" + std::to_string(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(name) + "\":{\"count\":" +
           std::to_string(h.count) + ",\"sum\":" + std::to_string(h.sum) +
           ",\"max\":" + std::to_string(h.max) + ",\"buckets\":[";
    for (std::size_t i = 0; i < h.bucket_counts.size(); ++i) {
      if (i > 0) out += ",";
      const std::string le = i < h.bounds.size()
                                 ? std::to_string(h.bounds[i])
                                 : std::string("\"inf\"");
      out += "{\"le\":" + le +
             ",\"count\":" + std::to_string(h.bucket_counts[i]) + "}";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace weakkeys::obs

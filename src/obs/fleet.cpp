#include "obs/fleet.hpp"

#include <algorithm>
#include <chrono>

#include "obs/metrics.hpp"

namespace weakkeys::obs {

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void ClockOffsetEstimator::observe(std::int64_t local_send_ns,
                                   std::int64_t local_recv_ns,
                                   std::int64_t remote_now_ns) {
  const std::int64_t rtt = local_recv_ns - local_send_ns;
  if (rtt < 0) return;  // clock ran backwards / garbled echo: not usable
  if (valid_ && rtt >= best_rtt_ns_) return;
  // Midpoint method: assume the remote sampled its clock halfway through
  // the round trip. The asymmetric-delay error is bounded by RTT/2, so the
  // minimum-RTT observation is the best available estimate.
  best_rtt_ns_ = rtt;
  offset_ns_ = remote_now_ns - (local_send_ns + rtt / 2);
  valid_ = true;
}

FleetAggregator::FleetAggregator(MetricsRegistry* registry, bool trace_enabled)
    : registry_(registry),
      trace_enabled_(trace_enabled),
      epoch_ns_(steady_now_ns()),
      // Run-unique and nonzero: a worker treats trace_id 0 as "tracing
      // off", and the epoch ns value cannot be 0 on any real steady clock.
      trace_id_(trace_enabled
                    ? static_cast<std::uint64_t>(epoch_ns_) | 1u
                    : 0) {}

void FleetAggregator::observe_clock(std::uint32_t worker,
                                    std::int64_t coord_send_ns,
                                    std::int64_t coord_recv_ns,
                                    std::int64_t worker_now_ns) {
  workers_[worker].clock.observe(coord_send_ns, coord_recv_ns, worker_now_ns);
}

ClockOffsetEstimator FleetAggregator::clock_offset(std::uint32_t worker) const {
  const auto it = workers_.find(worker);
  return it != workers_.end() ? it->second.clock : ClockOffsetEstimator{};
}

std::uint64_t FleetAggregator::begin_assign(std::uint32_t task,
                                            std::uint32_t worker,
                                            std::uint32_t attempt,
                                            std::int64_t now_ns) {
  if (!trace_enabled_) return 0;
  const std::uint64_t id = next_span_id_++;
  open_assigns_[id] = OpenAssign{task, worker, attempt, now_ns};
  return id;
}

void FleetAggregator::end_assign(std::uint64_t span_id, std::int64_t now_ns,
                                 bool committed) {
  if (span_id == 0) return;
  const auto it = open_assigns_.find(span_id);
  if (it == open_assigns_.end()) return;
  events_.push_back(assign_event(it->second, now_ns, committed));
  open_assigns_.erase(it);
}

TraceEvent FleetAggregator::assign_event(const OpenAssign& open,
                                         std::int64_t end_ns,
                                         bool committed) const {
  TraceEvent e;
  e.name = "task.assign";
  e.pid = kCoordinatorPid;
  e.tid = open.worker;  // one coordinator lane per worker slot
  e.ts_us = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, (open.start_ns - epoch_ns_) / 1000));
  e.dur_us = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, (end_ns - open.start_ns) / 1000));
  e.args = {{"task", open.task},
            {"worker", open.worker},
            {"attempt", open.attempt},
            {"committed", committed ? 1 : 0}};
  return e;
}

void FleetAggregator::on_worker_fresh(std::uint32_t worker) {
  WorkerState& ws = workers_[worker];
  // The new process starts its counters at zero and its span indices at
  // zero, on a brand-new clock. Fold what the dead incarnation reported so
  // published totals stay cumulative, and forget everything per-process.
  for (const auto& [name, value] : ws.counter_latest) {
    ws.counter_base[name] += value;
  }
  ws.counter_latest.clear();
  ws.span_high_water = 0;
  ws.clock = ClockOffsetEstimator{};
}

std::uint64_t FleetAggregator::folded_counter(
    const WorkerState& ws, const std::string& name) const {
  std::uint64_t total = 0;
  const auto base = ws.counter_base.find(name);
  if (base != ws.counter_base.end()) total += base->second;
  const auto latest = ws.counter_latest.find(name);
  if (latest != ws.counter_latest.end()) total += latest->second;
  return total;
}

std::size_t FleetAggregator::ingest(const FleetSnapshot& snap) {
  WorkerState& ws = workers_[snap.worker_id];
  ++ws.snapshots;
  ++snapshots_total_;
  // Absolute values: replays and reordering are last-write-wins harmless.
  for (const auto& [name, value] : snap.counters) {
    ws.counter_latest[name] = value;
  }
  for (const auto& [name, value] : snap.gauges) {
    ws.gauge_latest[name] = value;
  }
  if (snap.rss_kb >= 0) ws.rss_kb = snap.rss_kb;
  if (snap.peak_rss_kb >= 0) ws.peak_rss_kb = snap.peak_rss_kb;
  if (snap.cpu_user_us >= 0) ws.cpu_user_us = snap.cpu_user_us;
  if (snap.cpu_sys_us >= 0) ws.cpu_sys_us = snap.cpu_sys_us;

  std::size_t accepted = 0;
  if (trace_enabled_) {
    for (std::size_t i = 0; i < snap.spans.size(); ++i) {
      const std::uint64_t global_index = snap.first_span_index + i;
      if (global_index < ws.span_high_water) continue;  // replayed span
      ws.span_high_water = global_index + 1;
      const TraceEvent& span = snap.spans[i];
      // Worker-relative us -> worker absolute ns -> coordinator ns ->
      // trace-epoch-relative us. The offset estimate comes from the same
      // incarnation's Pongs (reset on respawn), so the rebase is valid.
      const std::int64_t worker_ns =
          snap.trace_epoch_ns +
          static_cast<std::int64_t>(span.ts_us) * 1000;
      const std::int64_t coord_ns = ws.clock.rebase(worker_ns);
      TraceEvent e = span;
      e.pid = kWorkerPidBase + snap.worker_id;
      e.ts_us = static_cast<std::uint64_t>(
          std::max<std::int64_t>(0, (coord_ns - epoch_ns_) / 1000));
      events_.push_back(std::move(e));
      ++accepted;
    }
  }
  publish();
  return accepted;
}

void FleetAggregator::publish() {
  if (!registry_) return;
  std::uint64_t fleet_tasks = 0;
  std::uint64_t fleet_compute_us = 0;
  std::uint64_t fleet_claims = 0;
  std::int64_t fleet_rss_kb = 0;
  std::uint64_t reporting = 0;
  for (const auto& [id, ws] : workers_) {
    if (ws.snapshots == 0) continue;  // clock-only entry: nothing to publish
    ++reporting;
    const std::string prefix = "fleet.worker." + std::to_string(id) + ".";
    // Union of base and latest names — a counter the new incarnation has
    // not touched yet must keep publishing its folded base.
    std::map<std::string, std::uint64_t> names;
    for (const auto& [name, value] : ws.counter_base) names[name] = 0;
    for (const auto& [name, value] : ws.counter_latest) names[name] = 0;
    for (auto& [name, value] : names) {
      value = folded_counter(ws, name);
      registry_->counter(prefix + name).set(value);
    }
    for (const auto& [name, value] : ws.gauge_latest) {
      registry_->gauge(prefix + name).set(value);
    }
    if (ws.rss_kb >= 0) {
      registry_->gauge(prefix + "rss_kb").set(ws.rss_kb);
      fleet_rss_kb += ws.rss_kb;
    }
    if (ws.peak_rss_kb >= 0) {
      registry_->gauge(prefix + "peak_rss_kb").set(ws.peak_rss_kb);
    }
    if (ws.cpu_user_us >= 0) {
      registry_->gauge(prefix + "cpu_user_us").set(ws.cpu_user_us);
    }
    if (ws.cpu_sys_us >= 0) {
      registry_->gauge(prefix + "cpu_sys_us").set(ws.cpu_sys_us);
    }
    if (ws.clock.valid()) {
      registry_->gauge(prefix + "clock_offset_ns").set(ws.clock.offset_ns());
      registry_->gauge(prefix + "clock_rtt_ns").set(ws.clock.best_rtt_ns());
    }
    fleet_tasks += names.count("tasks_executed") ? names["tasks_executed"] : 0;
    fleet_compute_us += names.count("compute_us") ? names["compute_us"] : 0;
    fleet_claims += names.count("claims_found") ? names["claims_found"] : 0;
  }
  registry_->counter("fleet.tasks_executed").set(fleet_tasks);
  registry_->counter("fleet.compute_us").set(fleet_compute_us);
  registry_->counter("fleet.claims_found").set(fleet_claims);
  registry_->counter("fleet.telemetry_snapshots").set(snapshots_total_);
  registry_->gauge("fleet.rss_kb").set(fleet_rss_kb);
  registry_->gauge("fleet.workers_reporting")
      .set(static_cast<std::int64_t>(reporting));
}

std::vector<TraceEvent> FleetAggregator::events() const {
  std::vector<TraceEvent> out = events_;
  for (const auto& [id, open] : open_assigns_) {
    out.push_back(assign_event(open, open.start_ns, /*committed=*/false));
  }
  std::stable_sort(out.begin(), out.end(), timeline_order);
  return out;
}

std::string FleetAggregator::chrome_trace_json() const {
  std::vector<std::pair<std::uint32_t, std::string>> lanes{
      {kCoordinatorPid, "coordinator"}};
  for (const auto& [id, ws] : workers_) {
    lanes.emplace_back(kWorkerPidBase + id, "worker " + std::to_string(id));
  }
  return obs::chrome_trace_json(events(), lanes);
}

}  // namespace weakkeys::obs

#include "netsim/internet.hpp"

#include <algorithm>
#include <cmath>

#include "obs/prof_stack.hpp"
#include "util/thread_pool.hpp"

namespace weakkeys::netsim {

using util::Date;

Internet::Internet(std::vector<DeviceModel> models, const SimConfig& config)
    : models_(std::move(models)),
      config_(config),
      factory_(config.seed, config.miller_rabin_rounds),
      events_rng_(config.seed ^ 0x5ca1ab1eULL),
      deploy_accumulator_(models_.size(), 0.0) {}

double Internet::deploy_rate(const DeviceModel& m, const Date& month) const {
  if (m.eol_announced && month >= *m.eol_announced) return 0.0;
  double rate = m.deploy_per_month;
  if (m.deploy_ramp_start && m.deploy_ramp_end) {
    const int span = util::months_between(*m.deploy_ramp_start, *m.deploy_ramp_end);
    const int at = util::months_between(*m.deploy_ramp_start, month);
    const double f =
        span <= 0 ? (at >= 0 ? 1.0 : 0.0)
                  : std::clamp(static_cast<double>(at) / span, 0.0, 1.0);
    rate *= f;
  }
  return rate;
}

void Internet::seed_initial_population() {
  constexpr int kBackfillMonths = 48;
  const Date start = study_start();
  for (const DeviceModel& model : models_) {
    const auto count =
        static_cast<std::size_t>(std::llround(model.initial_count));
    for (std::size_t i = 0; i < count; ++i) {
      // Manufacture dates spread over the years before the study window so
      // flawed_from / flawed_until windows partition the initial fleet.
      const auto back =
          static_cast<int>(events_rng_.below(kBackfillMonths));
      const Date manufactured =
          start.add_months(-back).add_days(static_cast<std::int64_t>(events_rng_.below(28)));
      devices_.push_back(factory_.place(model, manufactured, manufactured));
      // The initial fleet's keys are generated in month 0's batch.
      queue_keys(devices_.size() - 1, manufactured);
    }
  }
}

void Internet::queue_keys(std::size_t index, const Date& when) {
  KeyRecipe recipe = factory_.plan_keys(devices_[index], when);
  const auto [slot, fresh] = queued_slot_.try_emplace(index, queued_.size());
  if (fresh) {
    queued_.emplace_back(index, std::move(recipe));
  } else {
    queued_[slot->second].second = std::move(recipe);
  }
}

void Internet::materialize_queued(util::ThreadPool* pool) {
  obs::Span span;
  if (config_.telemetry) {
    span = config_.telemetry->tracer().span("sim.keygen");
    span.arg("keys", static_cast<std::int64_t>(queued_.size()));
  }
  util::parallel_for(
      pool, queued_.size(),
      [this](std::size_t i) {
        obs::prof::Frame frame("netsim.materialize");
        if (config_.cancel) config_.cancel->throw_if_cancelled();
        const auto& [index, recipe] = queued_[i];
        factory_.materialize(recipe, devices_[index]);
      },
      config_.cancel);
  queued_.clear();
  queued_slot_.clear();
}

void Internet::advance_month(const Date& month_start) {
  obs::Counter* deployed = nullptr;
  obs::Counter* retired = nullptr;
  obs::Counter* regenerated = nullptr;
  if (config_.telemetry) {
    auto& m = config_.telemetry->metrics();
    deployed = &m.counter("sim.devices_deployed");
    retired = &m.counter("sim.devices_retired");
    regenerated = &m.counter("sim.keys_regenerated");
  }

  // New deployments, with fractional carry so low rates still deploy.
  for (std::size_t mi = 0; mi < models_.size(); ++mi) {
    const DeviceModel& model = models_[mi];
    deploy_accumulator_[mi] += deploy_rate(model, month_start);
    const auto n = static_cast<std::size_t>(deploy_accumulator_[mi]);
    deploy_accumulator_[mi] -= static_cast<double>(n);
    if (deployed) deployed->inc(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Date when =
          month_start.add_days(static_cast<std::int64_t>(events_rng_.below(28)));
      devices_.push_back(factory_.place(model, when, when));
      queue_keys(devices_.size() - 1, when);
    }
  }

  // Per-device monthly events.
  const bool heartbleed_month =
      month_start.month_index() == heartbleed_date().month_index();
  for (std::size_t index = 0; index < devices_.size(); ++index) {
    Device& device = devices_[index];
    if (!device.alive) continue;
    const DeviceModel& model = *device.model;

    if (heartbleed_month && model.heartbleed_crash &&
        events_rng_.chance(model.heartbleed_offline_frac)) {
      // Crashed when scanned for Heartbleed, or pulled offline by the
      // publicity wave; the paper observed these never came back.
      device.alive = false;
      factory_.release_ip(device);
      if (retired) retired->inc();
      continue;
    }

    const double retire = (model.eol_announced && month_start >= *model.eol_announced)
                              ? model.post_eol_retire_rate
                              : model.retire_rate;
    if (events_rng_.chance(retire)) {
      device.alive = false;
      factory_.release_ip(device);
      if (retired) retired->inc();
      continue;
    }
    if (events_rng_.chance(model.churn_rate)) {
      factory_.reassign_ip(device);
    }
    if (events_rng_.chance(model.regen_rate)) {
      const Date when =
          month_start.add_days(static_cast<std::int64_t>(events_rng_.below(28)));
      queue_keys(index, when);
      if (regenerated) regenerated->inc();
    }
  }
}

ScanSnapshot Internet::scan(const ScanCampaign& campaign, const Date& when) {
  ScanSnapshot snap;
  snap.date = when;
  snap.source = campaign.name;
  snap.protocol = campaign.protocol;

  for (Device& device : devices_) {
    if (!device.alive) continue;
    const DeviceModel& model = *device.model;

    CertHandle presented;
    if (campaign.protocol == Protocol::kSsh) {
      if (!device.ssh_cert) continue;
      presented = device.ssh_cert;
    } else {
      if (model.protocol != campaign.protocol || !device.https_cert) continue;
      presented = device.behind_rimon ? factory_.rimon_variant(device)
                                      : device.https_cert;
    }
    if (!events_rng_.chance(campaign.coverage)) continue;

    if (model.bit_error_rate > 0 && events_rng_.chance(model.bit_error_rate)) {
      // One bit flipped on the wire or in storage; a fresh certificate
      // object because the corruption is per-observation.
      const std::size_t bits = presented->key.n.bit_length();
      presented = std::make_shared<cert::Certificate>(
          presented->with_modulus_bit_flipped(events_rng_.below(bits)));
    }

    snap.records.push_back(HostRecord{device.ip, presented, model.banner});

    // Rapid7 surfaced unchained intermediates alongside some leaves.
    if (campaign.name == "Rapid7" && device.issuer_cert &&
        events_rng_.chance(config_.rapid7_intermediate_rate)) {
      snap.records.push_back(HostRecord{device.ip, device.issuer_cert, ""});
    }
  }
  return snap;
}

ScanDataset Internet::run(const std::vector<ScanCampaign>& campaigns,
                          util::ThreadPool* pool) {
  seed_initial_population();

  // Schedule: month index -> campaign scan dates.
  struct Scheduled {
    const ScanCampaign* campaign;
    Date when;
  };
  std::vector<Scheduled> schedule;
  for (const auto& campaign : campaigns) {
    for (Date d = campaign.first; d <= campaign.last;
         d = d.add_months(campaign.months_between_scans)) {
      schedule.push_back({&campaign, d});
    }
  }

  ScanDataset dataset;
  const Date start = study_start().month_start();
  const int months = util::months_between(start, study_end()) + 1;
  obs::Counter* scanned = config_.telemetry
                              ? &config_.telemetry->metrics().counter(
                                    "sim.records_scanned")
                              : nullptr;
  for (int mi = 0; mi < months; ++mi) {
    if (config_.cancel) config_.cancel->throw_if_cancelled();
    const Date month = start.add_months(mi);
    advance_month(month);
    materialize_queued(pool);
    for (const auto& s : schedule) {
      if (s.when.month_index() != month.month_index()) continue;
      if (config_.cancel) config_.cancel->throw_if_cancelled();
      obs::Span span;
      if (config_.telemetry) {
        span = config_.telemetry->tracer().span("sim.scan");
        span.arg("month", month.month_index());
      }
      ScanSnapshot snap = scan(*s.campaign, s.when);
      if (scanned) scanned->inc(snap.records.size());
      dataset.snapshots.push_back(std::move(snap));
    }
    // One progress line per simulated year: the corpus build is the longest
    // silent stretch of a cold-cache run.
    if (config_.log && (mi + 1) % 12 == 0) {
      std::size_t alive = 0;
      for (const Device& d : devices_) alive += d.alive ? 1 : 0;
      config_.log("year " + std::to_string(month.year()) + ": " +
                  std::to_string(alive) + " devices alive, " +
                  std::to_string(dataset.snapshots.size()) +
                  " snapshots collected");
    }
  }

  std::sort(dataset.snapshots.begin(), dataset.snapshots.end(),
            [](const ScanSnapshot& a, const ScanSnapshot& b) {
              if (a.date != b.date) return a.date < b.date;
              return a.source < b.source;
            });
  return dataset;
}

}  // namespace weakkeys::netsim

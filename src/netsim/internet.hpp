// The internet simulator: runs device populations through the 2010-2016
// timeline and executes the historical scan campaigns against them.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "netsim/catalog.hpp"
#include "netsim/dataset.hpp"
#include "netsim/device.hpp"
#include "netsim/device_model.hpp"
#include "obs/telemetry.hpp"
#include "util/cancellation.hpp"
#include "util/prng.hpp"

namespace weakkeys::util {
class ThreadPool;
}  // namespace weakkeys::util

namespace weakkeys::netsim {

struct SimConfig {
  std::uint64_t seed = 20160414;
  /// Population scale. Applied by the *catalog* (standard_models(scale)),
  /// which also widens/narrows boot-entropy spaces by log2(scale) so that
  /// prime-collision fractions are scale-invariant. Internet itself uses
  /// the model counts as given.
  double scale = 1.0;
  /// Miller-Rabin rounds for simulated key generation (the corpus builder's
  /// throughput knob; primality errors are vanishingly unlikely either way).
  int miller_rabin_rounds = 6;
  /// Probability that a Rapid7 record of a CA-issued host also surfaces the
  /// unchained intermediate certificate (the Section 3.1 quirk).
  double rapid7_intermediate_rate = 0.10;
  /// Simulation progress events (one line per simulated year); null
  /// discards. core::Study routes this through its telemetry sink so the
  /// multi-minute corpus build is never a silent gap.
  std::function<void(const std::string&)> log;
  /// Optional telemetry: one `sim.scan` span per executed scan snapshot and
  /// `sim.*` population counters (deployed/retired/regenerated/records).
  /// Must outlive the Internet. Does not affect the StoreKey cache identity.
  obs::Telemetry* telemetry = nullptr;
  /// Cooperative cancellation: run() polls per simulated month, per scan
  /// snapshot, and per materialized key in each month's keygen batch, then
  /// throws one util::Cancelled — cancel latency is one key or one
  /// snapshot, whichever is in flight.
  /// Does not affect the StoreKey cache identity.
  const util::CancellationToken* cancel = nullptr;
};

class Internet {
 public:
  /// `models` describe the population; the Internet takes ownership (device
  /// records point into the stored copy).
  Internet(std::vector<DeviceModel> models, const SimConfig& config);

  /// Simulates month-by-month from study_start() to study_end(), executing
  /// every scheduled scan of every campaign. Snapshots come back
  /// date-ordered. Each month's keys are generated after its events and
  /// before its scans, on `pool` when one is given (one task per key) and
  /// inline otherwise; the corpus is the same either way.
  ScanDataset run(const std::vector<ScanCampaign>& campaigns,
                  util::ThreadPool* pool = nullptr);

  /// Ground truth (for tests and validation; the measurement pipeline uses
  /// only the ScanDataset).
  [[nodiscard]] const std::vector<Device>& devices() const { return devices_; }
  [[nodiscard]] const std::vector<DeviceModel>& models() const { return models_; }
  [[nodiscard]] DeviceFactory& factory() { return factory_; }

 private:
  void seed_initial_population();
  void advance_month(const util::Date& month_start);
  /// Plans a key for devices_[index]; replaces a recipe already queued for
  /// that device this month, since only the last one would be observable.
  void queue_keys(std::size_t index, const util::Date& when);
  /// Generates every queued key (DESIGN.md §5o) and empties the queue.
  void materialize_queued(util::ThreadPool* pool);
  ScanSnapshot scan(const ScanCampaign& campaign, const util::Date& when);
  [[nodiscard]] double deploy_rate(const DeviceModel& m,
                                   const util::Date& month) const;

  std::vector<DeviceModel> models_;
  SimConfig config_;
  DeviceFactory factory_;
  util::Xoshiro256 events_rng_;
  std::vector<Device> devices_;
  std::vector<double> deploy_accumulator_;
  /// This month's recipes, in plan order, and each queued device's slot.
  std::vector<std::pair<std::size_t, KeyRecipe>> queued_;
  std::unordered_map<std::size_t, std::size_t> queued_slot_;
};

}  // namespace weakkeys::netsim

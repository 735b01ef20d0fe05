#include "util/fault_injector.hpp"

#include "util/prng.hpp"

namespace weakkeys::util {

namespace {

/// SplitMix64 finalizer — mixes one word into an avalanche-quality hash.
constexpr std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

FaultDecision FaultInjector::decide(std::uint64_t task,
                                    std::uint64_t attempt) const {
  // Key the stream on (seed, task, attempt) only — never on wall-clock or
  // scheduling state — so schedules replay identically across worker counts.
  const std::uint64_t key =
      mix(mix(config_.seed + 0x9e3779b97f4a7c15ULL * (task + 1)) +
          0xd1b54a32d192ed03ULL * (attempt + 1));
  Xoshiro256 rng(key);

  FaultDecision decision;
  // One leading draw is discarded: the seeded schedules that tests and the
  // CI chaos jobs pin were generated with it.
  (void)rng();
  const double roll = rng.uniform();
  if (roll < config_.crash_probability) {
    decision.kind = FaultKind::kCrash;
  } else if (roll < config_.crash_probability + config_.straggle_probability) {
    decision.kind = FaultKind::kStraggle;
  } else if (roll < config_.crash_probability + config_.straggle_probability +
                        config_.corrupt_probability) {
    decision.kind = FaultKind::kCorruptResult;
    decision.corrupt_slot = rng();
  }
  return decision;
}

ProcessFaultKind FaultInjector::decide_process(std::uint64_t task,
                                               std::uint64_t attempt) const {
  if (!config_.any_process_faults()) return ProcessFaultKind::kNone;
  // A distinct stream constant keeps this tier's rolls independent of
  // decide()'s for the same (task, attempt).
  const std::uint64_t key =
      mix(mix(config_.seed + 0xa0761d6478bd642fULL * (task + 1)) +
          0xe7037ed1a0b428dbULL * (attempt + 1));
  Xoshiro256 rng(key);
  const double roll = rng.uniform();
  if (roll < config_.sigkill_probability) return ProcessFaultKind::kSigkill;
  if (roll < config_.sigkill_probability + config_.sigstop_probability) {
    return ProcessFaultKind::kSigstop;
  }
  return ProcessFaultKind::kNone;
}

FrameFault FaultInjector::decide_frame(std::uint64_t stream,
                                       std::uint64_t seq) const {
  FrameFault fault;
  if (!config_.any_frame_faults()) return fault;
  const std::uint64_t key =
      mix(mix(config_.seed + 0x8ebc6af09c88c6e3ULL * (stream + 1)) +
          0x589965cc75374cc3ULL * (seq + 1));
  Xoshiro256 rng(key);
  // drop > garble > delay: at most one fault per frame, like decide().
  const double roll = rng.uniform();
  if (roll < config_.frame_drop_probability) {
    fault.drop = true;
  } else if (roll <
             config_.frame_drop_probability + config_.frame_garble_probability) {
    fault.garble = true;
  } else if (roll < config_.frame_drop_probability +
                        config_.frame_garble_probability +
                        config_.frame_delay_probability) {
    fault.delay_ms = config_.frame_delay_ms;
  }
  return fault;
}

ConnFault FaultInjector::decide_conn(std::uint64_t stream,
                                     std::uint64_t seq) const {
  ConnFault fault;
  if (!config_.any_conn_faults()) return fault;
  const std::uint64_t key =
      mix(mix(config_.seed + 0x2545f4914f6cdd1dULL * (stream + 1)) +
          0x9fb21c651e98df25ULL * (seq + 1));
  Xoshiro256 rng(key);
  // disconnect > partition > half-open > slow-drip: at most one event per
  // draw, mirroring the other tiers' priority encoding.
  const double roll = rng.uniform();
  const double p_disc = config_.conn_disconnect_probability;
  const double p_part = p_disc + config_.conn_partition_probability;
  const double p_half = p_part + config_.conn_half_open_probability;
  const double p_drip = p_half + config_.conn_slow_drip_probability;
  if (roll < p_disc) {
    fault.kind = ConnFaultKind::kDisconnect;
  } else if (roll < p_part) {
    fault.kind = ConnFaultKind::kPartition;
    fault.duration_ms = config_.conn_partition_ms;
  } else if (roll < p_half) {
    fault.kind = ConnFaultKind::kHalfOpen;
    fault.duration_ms = config_.conn_partition_ms;
  } else if (roll < p_drip) {
    fault.kind = ConnFaultKind::kSlowDrip;
    fault.duration_ms = config_.conn_partition_ms;
    fault.drip_delay_ms = config_.conn_drip_delay_ms;
  }
  return fault;
}

StorageFault FaultInjector::decide_storage(std::uint64_t stream,
                                           std::uint64_t seq) const {
  StorageFault fault;
  if (!config_.any_storage_faults()) return fault;
  const std::uint64_t key =
      mix(mix(config_.seed + 0x6a09e667f3bcc909ULL * (stream + 1)) +
          0xbb67ae8584caa73bULL * (seq + 1));
  Xoshiro256 rng(key);
  // short write > fsync > bit flip > enospc > slow: at most one fault per
  // operation, mirroring the other tiers' priority encoding.
  const double roll = rng.uniform();
  const double p_short = config_.storage_short_write_probability;
  const double p_fsync = p_short + config_.storage_fsync_fail_probability;
  const double p_flip = p_fsync + config_.storage_bit_flip_probability;
  const double p_nospc = p_flip + config_.storage_enospc_probability;
  const double p_slow = p_nospc + config_.storage_slow_probability;
  if (roll < p_short) {
    fault.kind = StorageFaultKind::kShortWrite;
  } else if (roll < p_fsync) {
    fault.kind = StorageFaultKind::kFsyncFail;
  } else if (roll < p_flip) {
    fault.kind = StorageFaultKind::kBitFlip;
    fault.flip_seed = rng();
  } else if (roll < p_nospc) {
    fault.kind = StorageFaultKind::kEnospc;
  } else if (roll < p_slow) {
    fault.kind = StorageFaultKind::kSlowIo;
    fault.delay_ms = config_.storage_slow_ms;
  }
  return fault;
}

}  // namespace weakkeys::util

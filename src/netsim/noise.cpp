#include "netsim/noise.hpp"

#include <bit>
#include <memory>
#include <string>
#include <utility>

#include "util/prng.hpp"

namespace weakkeys::netsim {

namespace {

/// One corruption kind per injected record, drawn in a fixed order so the
/// record stream is reproducible from the seed alone.
enum class Corruption {
  kTruncated,
  kBitflip,
  kZeroModulus,
  kEvenModulus,
  kTinyModulus,
  kBadExponent,
  kInvertedValidity,
  kDuplicateSerial,
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  util::SplitMix64 sm(h ^ v);
  return sm.next();
}

/// Copy of the victim's certificate with one degenerate-key mutation. The
/// signature is deliberately left untouched (and thus invalid), like the
/// corrupted keys the paper observed.
cert::Certificate degrade(const cert::Certificate& victim, Corruption kind,
                          util::Xoshiro256& rng, std::size_t junk_id) {
  cert::Certificate c = victim;
  switch (kind) {
    case Corruption::kZeroModulus:
      c.key.n = bn::BigInt(0);
      break;
    case Corruption::kEvenModulus:
      // One cleared low bit: same magnitude, even — the classic corrupted
      // low-limb shape.
      c.key.n = victim.key.n - bn::BigInt(1);
      break;
    case Corruption::kTinyModulus:
      // Orders of magnitude below any real key; odd so only the size check
      // can catch it.
      c.key.n = bn::BigInt(3 + 2 * rng.below(1u << 20));
      break;
    case Corruption::kBadExponent:
      c.key.e = bn::BigInt(rng.below(2));  // 0 or 1
      break;
    case Corruption::kInvertedValidity:
      c.validity.not_after =
          c.validity.not_before.add_days(-1 - static_cast<std::int64_t>(rng.below(300)));
      break;
    case Corruption::kDuplicateSerial: {
      // A junk host presenting the victim's serial and modulus verbatim
      // under an unrelated subject ("moduli shared verbatim with junk").
      cert::DistinguishedName dn;
      dn.add("CN", "scan-junk-" + std::to_string(junk_id));
      c.subject = dn;
      c.issuer = std::move(dn);
      break;
    }
    case Corruption::kTruncated:
    case Corruption::kBitflip:
      break;  // handled at the byte level by the caller
  }
  return c;
}

}  // namespace

bool NoiseConfig::any() const {
  return truncated_rate > 0 || bitflip_rate > 0 || zero_modulus_rate > 0 ||
         even_modulus_rate > 0 || tiny_modulus_rate > 0 ||
         bad_exponent_rate > 0 || inverted_validity_rate > 0 ||
         duplicate_serial_rate > 0;
}

std::uint64_t NoiseConfig::fingerprint() const {
  if (!any()) return 0;  // a pristine corpus keys caches identically to no config
  std::uint64_t h = mix(0x6e6f697365ULL, seed);  // "noise"
  for (const double rate :
       {truncated_rate, bitflip_rate, zero_modulus_rate, even_modulus_rate,
        tiny_modulus_rate, bad_exponent_rate, inverted_validity_rate,
        duplicate_serial_rate}) {
    h = mix(h, std::bit_cast<std::uint64_t>(rate));
  }
  return h == 0 ? 1 : h;
}

NoiseSummary apply_noise(ScanDataset& dataset, const NoiseConfig& config) {
  NoiseSummary summary;
  if (!config.any()) return summary;
  util::Xoshiro256 rng(config.seed);
  std::size_t junk_id = 0;

  for (auto& snap : dataset.snapshots) {
    std::vector<HostRecord> junk;
    // Iterate only the records present before injection; appended junk is
    // never itself a victim.
    const std::size_t original = snap.records.size();
    for (std::size_t i = 0; i < original; ++i) {
      const HostRecord& victim = snap.records[i];
      if (!victim.has_cert()) continue;

      const auto inject = [&](Corruption kind) {
        HostRecord rec;
        rec.ip = Ipv4(static_cast<std::uint32_t>(rng()));
        if (kind == Corruption::kTruncated || kind == Corruption::kBitflip) {
          auto bytes = victim.cert().encode();
          if (kind == Corruption::kTruncated) {
            bytes.resize(1 + rng.below(bytes.size() - 1));
          } else {
            const int flips = 1 + static_cast<int>(rng.below(4));
            for (int f = 0; f < flips; ++f) {
              bytes[rng.below(bytes.size())] ^=
                  static_cast<std::uint8_t>(1 + rng.below(255));
            }
          }
          snap.undecoded.emplace(
              static_cast<std::uint32_t>(original + junk.size()),
              std::move(bytes));
        } else {
          rec.certificate = std::make_shared<cert::Certificate>(
              degrade(victim.cert(), kind, rng, junk_id++));
        }
        junk.push_back(std::move(rec));
      };

      if (rng.chance(config.truncated_rate)) {
        inject(Corruption::kTruncated);
        ++summary.truncated;
      }
      if (rng.chance(config.bitflip_rate)) {
        inject(Corruption::kBitflip);
        ++summary.bitflipped;
      }
      if (rng.chance(config.zero_modulus_rate)) {
        inject(Corruption::kZeroModulus);
        ++summary.zero_modulus;
      }
      if (rng.chance(config.even_modulus_rate)) {
        inject(Corruption::kEvenModulus);
        ++summary.even_modulus;
      }
      if (rng.chance(config.tiny_modulus_rate)) {
        inject(Corruption::kTinyModulus);
        ++summary.tiny_modulus;
      }
      if (rng.chance(config.bad_exponent_rate)) {
        inject(Corruption::kBadExponent);
        ++summary.bad_exponent;
      }
      if (rng.chance(config.inverted_validity_rate)) {
        inject(Corruption::kInvertedValidity);
        ++summary.inverted_validity;
      }
      if (rng.chance(config.duplicate_serial_rate)) {
        inject(Corruption::kDuplicateSerial);
        ++summary.duplicate_serial;
      }
    }
    for (auto& rec : junk) snap.records.push_back(std::move(rec));
  }
  return summary;
}

}  // namespace weakkeys::netsim

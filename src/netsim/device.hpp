// A single simulated network device: its RNG, keys, and certificate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cert/certificate.hpp"
#include "netsim/dataset.hpp"
#include "netsim/device_model.hpp"
#include "netsim/ip_allocator.hpp"
#include "netsim/ipv4.hpp"
#include "rsa/ibm_nine_primes.hpp"
#include "rsa/key.hpp"
#include "util/prng.hpp"

namespace weakkeys::netsim {

struct Device {
  const DeviceModel* model = nullptr;
  util::Date manufactured;
  util::Date deployed;
  bool flawed = false;  ///< firmware carried the RNG flaw at manufacture
  bool alive = true;
  bool behind_rimon = false;
  Ipv4 ip;

  rsa::RsaPrivateKey https_key;  ///< simulation ground truth (never shown to
                                 ///< the analysis pipeline pre-factoring)
  CertHandle https_cert;
  std::optional<rsa::RsaPrivateKey> ssh_key;
  /// Pseudo-certificate wrapping the SSH host key, so SSH scan records share
  /// the HostRecord schema (unsigned; subject names the host only).
  CertHandle ssh_cert;

  /// Rimon-substituted variant of https_cert, lazily built per device.
  CertHandle rimon_cert;
  /// Intermediate CA certificate that issued https_cert (CA-issued devices
  /// only); Rapid7-style scans surface it as an extra record.
  CertHandle issuer_cert;
};

/// Every draw one key generation takes from DeviceFactory's serial state,
/// recorded so the keygen itself can run later, on any thread
/// (DESIGN.md §5o). Materializing a recipe is a pure function of the recipe
/// and the device's model.
struct KeyRecipe {
  /// The RandomSource this boot actually has.
  enum class Source : std::uint8_t {
    kHealthy,  ///< rng::PrngRandomSource(seed)
    kFlawed,   ///< rng::SimulatedUrandom(boot_state = seed, divergence_seed)
    kIbm,      ///< the IBM nine-prime pool; `seed` picks the pair
  };
  Source source = Source::kHealthy;
  std::uint64_t seed = 0;
  std::uint64_t divergence_seed = 0;
  util::Date when;  ///< certificate validity start
  std::uint64_t device_id = 0;
  std::uint64_t ssh_serial = 0;    ///< 0: no SSH host key
  std::uint64_t https_serial = 0;  ///< 0: no TLS service
  /// Built at plan time: a kIpOctets subject names the IP the device held
  /// then, and churn may move it before the key is materialized.
  cert::DistinguishedName subject;
  std::ptrdiff_t ca = -1;  ///< index into ca_pool(); -1 = self-signed
};

/// Builds devices: owns the simulation PRNG stream for entropy draws, the
/// serial-number counter, and the IBM nine-prime pool.
class DeviceFactory {
 public:
  DeviceFactory(std::uint64_t seed, int miller_rabin_rounds);

  /// Creates a device of `model` manufactured on `manufactured` and deployed
  /// on `deployed`, generating its key material and certificate:
  /// place() + plan_keys() + materialize().
  Device create(const DeviceModel& model, const util::Date& manufactured,
                const util::Date& deployed);

  /// Regenerates a device's key and certificate (factory reset / firmware
  /// reinstall): plan_keys() + materialize(). Firmware flaw status is
  /// unchanged; the new boot draws fresh entropy, so a flawed device may
  /// move in or out of a collision.
  void regenerate(Device& device, const util::Date& when);

  /// The keyless part of create(): allocates the address and draws the
  /// Rimon flag. The device has no key or certificate until a recipe from
  /// plan_keys() is materialized into it.
  Device place(const DeviceModel& model, const util::Date& manufactured,
               const util::Date& deployed);

  /// Makes every draw of one key generation for `device` (entropy seeds,
  /// the SSH coin, the IBM pick, serials, device id, CA pick) in the
  /// historical order, without generating a key.
  KeyRecipe plan_keys(const Device& device, const util::Date& when);

  /// Generates the keys and certificates `recipe` describes into `device`.
  /// Reads no mutable factory state, so recipes for distinct devices may
  /// be materialized concurrently, in any order, while no plan_keys() runs.
  void materialize(const KeyRecipe& recipe, Device& device) const;

  /// The Rimon middlebox certificate variant for this device (cached).
  CertHandle rimon_variant(Device& device);

  /// Moves the device to a different address (DHCP churn); the old address
  /// returns to the pool for reuse by later allocations.
  void reassign_ip(Device& device);

  /// Releases the device's address (retirement / crash).
  void release_ip(Device& device);

  [[nodiscard]] const rsa::IbmNinePrimeGenerator& ibm_pool(std::size_t bits);

  /// The fixed public key the Rimon ISP substitutes (never factorable).
  [[nodiscard]] const rsa::RsaPublicKey& rimon_key(std::size_t bits);

  [[nodiscard]] util::Xoshiro256& sim_rng() { return rng_; }

  /// The intermediate-CA pool used to issue browser-trusted leaves.
  struct CaEntry {
    CertHandle certificate;
    rsa::RsaPrivateKey key;
  };
  [[nodiscard]] const std::vector<CaEntry>& ca_pool();

 private:
  cert::DistinguishedName build_subject(const Device& device,
                                        std::uint64_t device_id) const;

  util::Xoshiro256 rng_;
  IpAllocator ips_;
  int mr_rounds_;
  std::uint64_t next_serial_ = 1;
  std::uint64_t next_device_id_ = 1;
  std::map<std::size_t, rsa::IbmNinePrimeGenerator> ibm_pools_;
  std::map<std::size_t, rsa::RsaPrivateKey> rimon_keys_;
  std::vector<CaEntry> cas_;
};

}  // namespace weakkeys::netsim

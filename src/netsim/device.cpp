#include "netsim/device.hpp"

#include <cinttypes>
#include <cstdio>

#include "rng/prng_source.hpp"
#include "rng/urandom.hpp"

namespace weakkeys::netsim {

namespace {

constexpr int kCertValidityYears = 10;

std::string hex_id(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%08" PRIx64, id);
  return buf;
}

}  // namespace

DeviceFactory::DeviceFactory(std::uint64_t seed, int miller_rabin_rounds)
    : rng_(seed), ips_(seed ^ 0x1b1b1b1bULL), mr_rounds_(miller_rabin_rounds) {}

void DeviceFactory::reassign_ip(Device& device) {
  ips_.release(device.ip);
  device.ip = ips_.allocate();
}

void DeviceFactory::release_ip(Device& device) { ips_.release(device.ip); }

const rsa::IbmNinePrimeGenerator& DeviceFactory::ibm_pool(std::size_t bits) {
  auto it = ibm_pools_.find(bits);
  if (it == ibm_pools_.end()) {
    // Fixed tag: the pool is a property of the buggy firmware, not of the
    // simulation seed.
    it = ibm_pools_.emplace(bits, rsa::IbmNinePrimeGenerator(bits, 0x52534132ULL))
             .first;
  }
  return it->second;
}

const std::vector<DeviceFactory::CaEntry>& DeviceFactory::ca_pool() {
  if (cas_.empty()) {
    constexpr int kCaCount = 6;
    rng::PrngRandomSource healthy(0x4341504f4f4cULL);  // "CAPOOL"
    rsa::KeygenOptions opts;
    opts.modulus_bits = 256;
    opts.miller_rabin_rounds = 16;
    for (int i = 0; i < kCaCount; ++i) {
      rsa::RsaPrivateKey key = rsa::generate_key(healthy, opts);
      cert::DistinguishedName dn;
      dn.add("CN", "Intermediate CA " + std::to_string(i + 1));
      dn.add("O", "Example Trust Services");
      const cert::Validity validity{util::Date(2005, 1, 1),
                                    util::Date(2030, 1, 1)};
      auto certificate = std::make_shared<cert::Certificate>(
          cert::make_self_signed(dn, {}, validity, key, next_serial_++));
      cas_.push_back(CaEntry{std::move(certificate), std::move(key)});
    }
  }
  return cas_;
}

const rsa::RsaPublicKey& DeviceFactory::rimon_key(std::size_t bits) {
  auto it = rimon_keys_.find(bits);
  if (it == rimon_keys_.end()) {
    rng::PrngRandomSource healthy(0x52494d4f4eULL ^ bits);  // "RIMON"
    rsa::KeygenOptions opts;
    opts.modulus_bits = bits;
    opts.style = rsa::PrimeStyle::kOpenSsl;
    opts.miller_rabin_rounds = 16;
    it = rimon_keys_.emplace(bits, rsa::generate_key(healthy, opts)).first;
  }
  return it->second.pub;
}

cert::DistinguishedName DeviceFactory::build_subject(
    const Device& device, std::uint64_t device_id) const {
  const DeviceModel& m = *device.model;
  cert::DistinguishedName dn;
  switch (m.subject_style) {
    case SubjectStyle::kOrgAndModel:
      dn.add("CN", m.model.empty() ? m.vendor : m.model);
      if (!m.model.empty()) dn.add("OU", m.model);
      dn.add("O", m.vendor);
      break;
    case SubjectStyle::kSystemGenerated:
      dn.add("CN", "system generated");
      break;
    case SubjectStyle::kDefaultNames:
      dn.add("CN", "Default Common Name");
      dn.add("OU", "Default Unit");
      dn.add("O", "Default Organization");
      break;
    case SubjectStyle::kIpOctets:
      dn.add("CN", device.ip.to_string());
      break;
    case SubjectStyle::kFritzDomains:
      dn.add("CN", hex_id(device_id) + ".myfritz.net");
      break;
    case SubjectStyle::kCustomerOrg:
      // Organization-specific subject carrying no vendor information.
      dn.add("CN", "mgmt-" + hex_id(device_id));
      dn.add("O", "Customer Organization " + std::to_string(device_id % 97));
      break;
    case SubjectStyle::kDellImaging:
      dn.add("CN", "printer-" + hex_id(device_id));
      dn.add("OU", "Dell Imaging Group");
      dn.add("O", "Dell Inc.");
      break;
  }
  return dn;
}

KeyRecipe DeviceFactory::plan_keys(const Device& device,
                                   const util::Date& when) {
  // Every rng_, serial and device-id step below happens in the order the
  // corpus has always been generated in; materialize() makes none.
  const DeviceModel& m = *device.model;
  KeyRecipe recipe;
  recipe.when = when;
  recipe.device_id = next_device_id_++;

  if (m.uses_ibm_nine_primes) {
    recipe.source = KeyRecipe::Source::kIbm;
  } else if (device.flawed) {
    // Divergence seed first: the order GCC gave these as unsequenced args.
    recipe.source = KeyRecipe::Source::kFlawed;
    recipe.divergence_seed = rng_();
    recipe.seed = rng_();
  } else {
    recipe.source = KeyRecipe::Source::kHealthy;
    recipe.seed = rng_();
  }

  // SSH host key first (sshd generates at first boot, before the web UI).
  const bool wants_ssh = m.protocol == Protocol::kSsh ||
                         (m.ssh_frac > 0 && rng_.chance(m.ssh_frac));
  if (wants_ssh && !m.uses_ibm_nine_primes) recipe.ssh_serial = next_serial_++;

  // Dedicated SSH hosts expose no TLS service.
  if (m.protocol == Protocol::kSsh) return recipe;

  if (m.uses_ibm_nine_primes) {
    (void)ibm_pool(m.key_bits);  // built here; materialize() only reads it
    if (!m.fixed_ibm_key) recipe.seed = rng_();
  }
  recipe.subject = build_subject(device, recipe.device_id);
  if (m.ca_issued) {
    const auto& pool = ca_pool();
    recipe.ca = static_cast<std::ptrdiff_t>(rng_.below(pool.size()));
  }
  recipe.https_serial = next_serial_++;
  return recipe;
}

void DeviceFactory::materialize(const KeyRecipe& recipe, Device& device) const {
  const DeviceModel& m = *device.model;
  rsa::KeygenOptions opts;
  opts.modulus_bits = m.key_bits;
  opts.style = m.prime_style;
  opts.miller_rabin_rounds = mr_rounds_;

  std::unique_ptr<bn::RandomSource> source;
  rng::SimulatedUrandom* flawed_urandom = nullptr;
  switch (recipe.source) {
    case KeyRecipe::Source::kFlawed: {
      auto ur = std::make_unique<rng::SimulatedUrandom>(
          m.pool_tag(), m.flawed_rng, recipe.seed, recipe.divergence_seed);
      flawed_urandom = ur.get();
      source = std::move(ur);
      break;
    }
    case KeyRecipe::Source::kHealthy:
      source = std::make_unique<rng::PrngRandomSource>(recipe.seed);
      break;
    case KeyRecipe::Source::kIbm:
      break;  // no RandomSource-driven keygen
  }

  rsa::KeygenEvents events;
  events.before_prime = [flawed_urandom](int prime_index) {
    if (flawed_urandom && prime_index == 1)
      flawed_urandom->stir_divergence_event();
  };

  const cert::Validity validity{recipe.when,
                                recipe.when.add_months(12 * kCertValidityYears)};
  device.ssh_key.reset();
  device.ssh_cert.reset();
  if (recipe.ssh_serial != 0) {
    device.ssh_key = rsa::generate_key(*source, opts, &events);
    auto ssh_cert = std::make_shared<cert::Certificate>();
    ssh_cert->serial = recipe.ssh_serial;
    ssh_cert->subject.add("CN", "ssh-" + hex_id(recipe.device_id));
    ssh_cert->issuer = ssh_cert->subject;
    ssh_cert->validity = validity;
    ssh_cert->key = device.ssh_key->pub;
    ssh_cert->signature_algorithm = "ssh-rsa";
    device.ssh_cert = std::move(ssh_cert);
  }

  device.rimon_cert.reset();
  device.issuer_cert.reset();
  if (recipe.https_serial == 0) {
    device.https_cert.reset();
    return;
  }

  if (recipe.source == KeyRecipe::Source::kIbm) {
    const auto& pool = ibm_pools_.at(m.key_bits);
    if (m.fixed_ibm_key) {
      // Every device of this family embeds the same key from the IBM pool
      // (the Siemens Building Automation overlap).
      device.https_key =
          rsa::assemble_private_key(pool.primes()[0], pool.primes()[1],
                                    bn::BigInt(65537));
    } else {
      rng::PrngRandomSource pick(recipe.seed);
      device.https_key = pool.generate(pick);
    }
  } else {
    device.https_key = rsa::generate_key(*source, opts, &events);
  }

  // Default certificate: self-signed for devices, CA-issued for
  // browser-trusted web servers.
  std::vector<std::string> sans;
  if (m.subject_style == SubjectStyle::kFritzDomains) {
    sans = {"fritz.box", "www.fritz.box", "myfritz.box", "www.myfritz.box",
            "fritz.fonwlan.box"};
  }
  if (recipe.ca >= 0) {
    const CaEntry& ca = cas_[static_cast<std::size_t>(recipe.ca)];
    device.https_cert = std::make_shared<cert::Certificate>(cert::make_issued(
        recipe.subject, sans, validity, device.https_key.pub,
        ca.certificate->subject, ca.key, recipe.https_serial));
    device.issuer_cert = ca.certificate;
  } else {
    device.https_cert = std::make_shared<cert::Certificate>(
        cert::make_self_signed(recipe.subject, sans, validity,
                               device.https_key, recipe.https_serial));
  }
}

Device DeviceFactory::place(const DeviceModel& model,
                            const util::Date& manufactured,
                            const util::Date& deployed) {
  Device device;
  device.model = &model;
  device.manufactured = manufactured;
  device.deployed = deployed;
  device.flawed = model.flawed_at(manufactured);
  device.ip = ips_.allocate();
  device.behind_rimon = model.rimon_mitm_frac > 0 && rng_.chance(model.rimon_mitm_frac);
  return device;
}

Device DeviceFactory::create(const DeviceModel& model,
                             const util::Date& manufactured,
                             const util::Date& deployed) {
  Device device = place(model, manufactured, deployed);
  materialize(plan_keys(device, deployed), device);
  return device;
}

void DeviceFactory::regenerate(Device& device, const util::Date& when) {
  materialize(plan_keys(device, when), device);
}

CertHandle DeviceFactory::rimon_variant(Device& device) {
  if (!device.rimon_cert) {
    // The middlebox swaps only the public key; everything else — including
    // the now-invalid signature — is passed through unchanged.
    auto variant = std::make_shared<cert::Certificate>(*device.https_cert);
    variant->key = rimon_key(device.model->key_bits);
    device.rimon_cert = std::move(variant);
  }
  return device.rimon_cert;
}

}  // namespace weakkeys::netsim

#include "core/scan_store.hpp"

#include "util/atomic_file.hpp"
#include "util/binary_io.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

namespace weakkeys::core {

namespace {

constexpr std::uint32_t kMagic = 0x574b5331;       // "WKS1"

}  // namespace

const char* to_string(DatasetLoadStatus s) {
  switch (s) {
    case DatasetLoadStatus::kLoaded:
      return "loaded";
    case DatasetLoadStatus::kMissing:
      return "missing";
    case DatasetLoadStatus::kBadChecksum:
      return "checksum mismatch";
    case DatasetLoadStatus::kBadMagic:
      return "bad magic";
    case DatasetLoadStatus::kKeyMismatch:
      return "key mismatch";
    case DatasetLoadStatus::kParseError:
      return "parse error";
  }
  return "unknown";
}

void save_dataset(const netsim::ScanDataset& dataset, const StoreKey& key,
                  const std::string& path) {
  // The certificate table (records share certificate objects). Records
  // without a decoded certificate — dirty-corpus raw bytes awaiting
  // quarantine — are not corpus data and are skipped.
  const netsim::CertificateIndex index = netsim::index_certificates(dataset);

  // Stream to <path>.tmp and publish with an atomic rename: a crash (or
  // SIGKILL in the resume harness) mid-save must never leave a torn cache
  // at the canonical path.
  const std::string tmp = util::atomic_tmp_path(path);
  {
    util::BinaryWriter w(tmp);
    w.u32(kMagic);
    w.u64(key.seed);
    w.u64(key.scale_millionths);
    w.u32(key.mr_rounds);
    w.u32(key.catalog_version);

    w.u32(static_cast<std::uint32_t>(index.size()));
    for (std::size_t i = 0; i < index.size(); ++i) {
      w.bytes(index.first_record(dataset, i).cert().encode());
    }

    w.u32(static_cast<std::uint32_t>(dataset.snapshots.size()));
    for (std::size_t s = 0; s < dataset.snapshots.size(); ++s) {
      const auto& snap = dataset.snapshots[s];
      const std::int64_t day = snap.date.days_since_epoch();
      w.i64(day);
      w.str(snap.source);
      w.u32(static_cast<std::uint32_t>(snap.protocol));
      std::uint32_t kept = 0;
      for (const auto& rec : snap.records) kept += rec.has_cert() ? 1 : 0;
      w.u32(kept);
      // Each record repeats its snapshot's date: the format predates
      // records without one.
      for (std::size_t r = 0; r < snap.records.size(); ++r) {
        const auto& rec = snap.records[r];
        if (!rec.has_cert()) continue;
        w.i64(day);
        w.u32(rec.ip.value());
        w.u32(index.slots[s][r]);
        w.str(rec.banner);
      }
    }
  }
  // Truncation/bit-rot guard; load_dataset refuses files without it.
  util::append_checksum_footer(tmp);
  util::atomic_publish_file(tmp, path);
}

std::optional<netsim::ScanDataset> load_dataset(const StoreKey& key,
                                                const std::string& path,
                                                DatasetLoadStatus* status) {
  DatasetLoadStatus local = DatasetLoadStatus::kParseError;
  DatasetLoadStatus& out = status ? *status : local;

  util::BinaryReader r(path);
  if (!r.ok()) {
    out = DatasetLoadStatus::kMissing;
    return std::nullopt;
  }
  if (!util::verify_checksum_footer(path)) {
    out = DatasetLoadStatus::kBadChecksum;
    return std::nullopt;
  }
  try {
    if (r.u32() != kMagic) {
      out = DatasetLoadStatus::kBadMagic;
      return std::nullopt;
    }
    StoreKey found;
    found.seed = r.u64();
    found.scale_millionths = r.u64();
    found.mr_rounds = r.u32();
    found.catalog_version = r.u32();
    if (!(found == key)) {
      out = DatasetLoadStatus::kKeyMismatch;
      return std::nullopt;
    }

    const std::uint32_t cert_count = r.u32();
    std::vector<netsim::CertHandle> certs;
    certs.reserve(cert_count);
    for (std::uint32_t i = 0; i < cert_count; ++i) {
      certs.push_back(std::make_shared<cert::Certificate>(
          cert::Certificate::decode(r.bytes())));
    }

    netsim::ScanDataset dataset;
    const std::uint32_t snap_count = r.u32();
    dataset.snapshots.reserve(snap_count);
    for (std::uint32_t s = 0; s < snap_count; ++s) {
      netsim::ScanSnapshot snap;
      const std::int64_t day = r.i64();
      snap.date = util::Date::from_days_since_epoch(day);
      snap.source = r.str();
      const auto protocol = netsim::protocol_from_index(r.u32());
      if (!protocol) throw std::runtime_error("invalid protocol index");
      snap.protocol = *protocol;
      const std::uint32_t rec_count = r.u32();
      snap.records.reserve(rec_count);
      for (std::uint32_t i = 0; i < rec_count; ++i) {
        if (r.i64() != day) {
          throw std::runtime_error("record date differs from its snapshot's");
        }
        netsim::HostRecord rec;
        rec.ip = netsim::Ipv4(r.u32());
        rec.certificate = certs.at(r.u32());
        rec.banner = r.str();
        snap.records.push_back(std::move(rec));
      }
      dataset.snapshots.push_back(std::move(snap));
    }
    out = DatasetLoadStatus::kLoaded;
    return dataset;
  } catch (const std::exception&) {
    out = DatasetLoadStatus::kParseError;
    return std::nullopt;  // truncated or corrupt cache: rebuild
  }
}

}  // namespace weakkeys::core

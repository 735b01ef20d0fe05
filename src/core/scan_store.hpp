// Binary persistence for scan datasets.
//
// The paper kept 1.5B host records in MySQL behind a 6TB SSD cache; our
// equivalent is a compact single-file store so the expensive corpus
// simulation runs once and every table/figure binary reloads it. Certificates
// are stored once (TLV-encoded) and referenced by index from records.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "netsim/dataset.hpp"

namespace weakkeys::core {

/// Identifies the configuration a store was built from; a mismatch on load
/// forces a rebuild.
struct StoreKey {
  std::uint64_t seed = 0;
  std::uint64_t scale_millionths = 0;
  std::uint32_t mr_rounds = 0;
  std::uint32_t catalog_version = 0;

  friend bool operator==(const StoreKey&, const StoreKey&) = default;
};

/// Why a load_dataset() call did not (or did) produce a dataset. Surfaced
/// through the Study progress log so cache rebuilds are attributable
/// instead of silent.
enum class DatasetLoadStatus {
  kLoaded,       ///< cache hit
  kMissing,      ///< file absent or unreadable
  kBadChecksum,  ///< length+CRC footer absent or wrong (truncation/bit rot)
  kBadMagic,     ///< not a scan-store file
  kKeyMismatch,  ///< built from a different seed/scale/version
  kParseError,   ///< framing/content failed to parse
};

const char* to_string(DatasetLoadStatus s);

/// Writes `dataset` to `path`, guarded by a length+CRC-32 footer.
/// Certificate-less records and their undecoded bytes are quarantine input,
/// not corpus, and are not persisted. Throws std::runtime_error on I/O
/// failure.
void save_dataset(const netsim::ScanDataset& dataset, const StoreKey& key,
                  const std::string& path);

/// Loads a dataset if `path` exists, passes the checksum, parses, and
/// matches `key`; nullopt otherwise — never throws for a stale, truncated,
/// or corrupt cache. When `status` is non-null it receives the outcome.
std::optional<netsim::ScanDataset> load_dataset(
    const StoreKey& key, const std::string& path,
    DatasetLoadStatus* status = nullptr);

}  // namespace weakkeys::core

// On-disk tree-level files for the out-of-core batch GCD ("spill files").
//
// A spill file is one product-tree level written as a sequential,
// stream-readable artifact:
//
//   header (44 bytes) | records | payload CRC (4 bytes)
//
//   header:  u32 magic "WKL1" | u32 version | u64 generation |
//            u32 level_index | u32 reserved | u64 record_count |
//            u64 payload_bytes | u32 header_crc(first 36 bytes)
//   records: per node, u32 byte_length | bytes  (concatenated; the
//            payload CRC covers this byte stream exactly)
//
// The generation stamp binds a level file to the corpus it was built from
// (a fingerprint of the input moduli), so a resumed run can trust levels
// found on disk and a stale file from an earlier corpus is a detected
// error, not silent reuse. Files are published via the atomic tmp + fsync
// + rename + parent-fsync protocol, so a SIGKILL at any point leaves
// either no file or a complete one; the CRCs catch everything the rename
// protocol cannot (bit rot, torn writes on non-POSIX filesystems).
//
// Every operation can be perturbed by the FaultInjector's storage tier
// (short write, fsync failure, post-publish bit flip, ENOSPC, slow I/O)
// through SpillIoHooks — the schedule is pure in (seed, stream, op seq),
// like every other injector tier.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/fault_injector.hpp"

namespace weakkeys::util {

/// Why a storage operation failed. The spill store's degradation ladder
/// reacts to the kind (ENOSPC starts the spill -> shrink -> in-RAM walk;
/// kExhausted means the ladder itself ran out of rungs).
enum class StorageErrorKind : std::uint8_t {
  kIo,          ///< open/read/write failed for an unclassified reason
  kShortWrite,  ///< fewer bytes reached the file than were written
  kFsync,       ///< the pre-publish fsync failed; durability unknown
  kEnospc,      ///< the filesystem is full
  kExhausted    ///< every degradation rung failed; the run must cancel
};

[[nodiscard]] const char* to_string(StorageErrorKind kind);

/// The storage tier's clean-cancel exception: thrown when a spill write
/// cannot be completed (after retries) or when a corrupt level cannot be
/// healed. Flows through the same lifecycle path as util::Cancelled — the
/// study flushes telemetry and reports kFailed instead of corrupting the
/// vulnerable set.
class StorageError : public std::runtime_error {
 public:
  StorageError(StorageErrorKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  [[nodiscard]] StorageErrorKind kind() const { return kind_; }

 private:
  StorageErrorKind kind_;
};

/// Verification outcome of reading or probing a spill file. Every way a
/// file can be wrong maps to a distinct status (the corruption-table sweep
/// asserts the mapping), and none of them throws — corruption is an
/// expected event the caller heals around.
enum class SpillFileStatus : std::uint8_t {
  kOk = 0,
  kMissing,          ///< the file does not exist / cannot be opened
  kEmpty,            ///< zero-length file (crash before any byte landed)
  kTruncatedHeader,  ///< shorter than the fixed header
  kBadMagic,         ///< not a spill file
  kBadVersion,       ///< format version from a different build
  kBadHeaderCrc,     ///< header bytes corrupted
  kStaleGeneration,  ///< valid file from a different corpus generation
  kTruncatedPayload, ///< size disagrees with the header's payload_bytes
  kBadRecord,        ///< a record length points outside the payload
  kBadPayloadCrc     ///< payload bytes corrupted (bit rot / torn write)
};

[[nodiscard]] const char* to_string(SpillFileStatus status);

inline constexpr std::uint32_t kSpillMagic = 0x574b4c31;  // "WKL1"
inline constexpr std::uint32_t kSpillVersion = 1;
inline constexpr std::size_t kSpillHeaderSize = 44;
inline constexpr std::size_t kSpillFooterSize = 4;

struct SpillFileHeader {
  std::uint64_t generation = 0;
  std::uint32_t level_index = 0;
  std::uint64_t record_count = 0;
  std::uint64_t payload_bytes = 0;
};

/// Storage-tier fault wiring for one spill store. `op_seq` is the store's
/// monotonically increasing operation counter (one draw per file write or
/// read), owned by the store so the schedule is pure in (seed, stream,
/// operation index) regardless of which levels get which operations.
struct SpillIoHooks {
  const FaultInjector* injector = nullptr;
  std::uint64_t stream = 0;
  std::uint64_t* op_seq = nullptr;
};

/// Streams one level's records into "<path>.tmp" and publishes it
/// atomically on finish(). The header is backpatched with the final record
/// count, payload size, and CRCs, so add_record() never buffers more than
/// stdio's block. Any failure — real I/O error or injected storage fault —
/// surfaces as StorageError from finish() (or add_record) with the tmp
/// removed; a writer destroyed before finish() also removes the tmp.
class SpillFileWriter {
 public:
  SpillFileWriter(std::string path, std::uint64_t generation,
                  std::uint32_t level_index, const SpillIoHooks& hooks = {});
  ~SpillFileWriter();
  SpillFileWriter(const SpillFileWriter&) = delete;
  SpillFileWriter& operator=(const SpillFileWriter&) = delete;

  void add_record(const std::uint8_t* data, std::size_t size);
  void add_record(std::span<const std::uint8_t> bytes) {
    add_record(bytes.data(), bytes.size());
  }

  /// Seals and publishes the file. Returns the published file's total
  /// size in bytes. Throws StorageError on any failure (tmp removed).
  std::uint64_t finish();

 private:
  void fail(StorageErrorKind kind, const std::string& what);

  std::string path_;
  std::string tmp_;
  std::FILE* file_ = nullptr;
  SpillFileHeader header_;
  std::uint32_t payload_crc_ = 0;  ///< running crc32 of the payload
  StorageFault fault_;             ///< this operation's injected fault
  bool finished_ = false;
};

/// Reads and fully verifies a spill file, streaming records straight into
/// `records` (small constant buffering beyond the records themselves).
/// Returns kOk with `header`/`records` filled, or the distinct status for
/// whatever is wrong — never throws on corruption. Injected slow-I/O
/// faults stall the read; other storage-fault kinds do not apply to reads.
SpillFileStatus read_spill_file(const std::string& path,
                                std::uint64_t expected_generation,
                                SpillFileHeader* header,
                                std::vector<std::vector<std::uint8_t>>* records,
                                const SpillIoHooks& hooks = {});

/// Header-only validation (magic, version, header CRC, generation, total
/// size vs header) for cheap resume probing; does not touch the payload
/// CRC, so a probe can pass where a full read later heals.
SpillFileStatus probe_spill_file(const std::string& path,
                                 std::uint64_t expected_generation,
                                 SpillFileHeader* header);

}  // namespace weakkeys::util

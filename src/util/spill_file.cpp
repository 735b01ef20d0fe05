#include "util/spill_file.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "util/atomic_file.hpp"
#include "util/binary_io.hpp"

#if !defined(_WIN32)
#include <unistd.h>
#define WEAKKEYS_HAVE_FSYNC 1
#endif

namespace weakkeys::util {

namespace {

bool fsync_file([[maybe_unused]] std::FILE* f) {
#if defined(WEAKKEYS_HAVE_FSYNC)
  return ::fsync(::fileno(f)) == 0;
#else
  return true;
#endif
}

/// Draws this operation's storage fault and advances the store's op
/// counter. No injector (or no counter) means no faults.
StorageFault next_fault(const SpillIoHooks& hooks) {
  if (hooks.injector == nullptr || hooks.op_seq == nullptr) return {};
  return hooks.injector->decide_storage(hooks.stream, (*hooks.op_seq)++);
}

void apply_slow_io(const StorageFault& fault) {
  if (fault.kind == StorageFaultKind::kSlowIo && fault.delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(fault.delay_ms));
  }
}

struct HeaderImage {
  std::uint8_t bytes[kSpillHeaderSize];
  std::size_t at = 0;

  void u32(std::uint32_t v) {
    std::memcpy(bytes + at, &v, sizeof v);
    at += sizeof v;
  }
  void u64(std::uint64_t v) {
    std::memcpy(bytes + at, &v, sizeof v);
    at += sizeof v;
  }
};

void encode_header(const SpillFileHeader& header, HeaderImage& image) {
  image.u32(kSpillMagic);
  image.u32(kSpillVersion);
  image.u64(header.generation);
  image.u32(header.level_index);
  image.u32(0);  // reserved
  image.u64(header.record_count);
  image.u64(header.payload_bytes);
  image.u32(crc32(image.bytes, image.at));
}

std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t read_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

const char* to_string(StorageErrorKind kind) {
  switch (kind) {
    case StorageErrorKind::kIo: return "io";
    case StorageErrorKind::kShortWrite: return "short-write";
    case StorageErrorKind::kFsync: return "fsync";
    case StorageErrorKind::kEnospc: return "enospc";
    case StorageErrorKind::kExhausted: return "exhausted";
  }
  return "unknown";
}

const char* to_string(SpillFileStatus status) {
  switch (status) {
    case SpillFileStatus::kOk: return "ok";
    case SpillFileStatus::kMissing: return "missing";
    case SpillFileStatus::kEmpty: return "empty";
    case SpillFileStatus::kTruncatedHeader: return "truncated-header";
    case SpillFileStatus::kBadMagic: return "bad-magic";
    case SpillFileStatus::kBadVersion: return "bad-version";
    case SpillFileStatus::kBadHeaderCrc: return "bad-header-crc";
    case SpillFileStatus::kStaleGeneration: return "stale-generation";
    case SpillFileStatus::kTruncatedPayload: return "truncated-payload";
    case SpillFileStatus::kBadRecord: return "bad-record";
    case SpillFileStatus::kBadPayloadCrc: return "bad-payload-crc";
  }
  return "unknown";
}

SpillFileWriter::SpillFileWriter(std::string path, std::uint64_t generation,
                                 std::uint32_t level_index,
                                 const SpillIoHooks& hooks)
    : path_(std::move(path)),
      tmp_(atomic_tmp_path(path_)),
      fault_(next_fault(hooks)) {
  header_.generation = generation;
  header_.level_index = level_index;
  file_ = std::fopen(tmp_.c_str(), "wb");
  if (file_ == nullptr) {
    throw StorageError(
        errno == ENOSPC ? StorageErrorKind::kEnospc : StorageErrorKind::kIo,
        "cannot open spill tmp: " + tmp_);
  }
  // Reserve the header slot; finish() backpatches the real one.
  const std::uint8_t zeros[kSpillHeaderSize] = {};
  if (std::fwrite(zeros, 1, kSpillHeaderSize, file_) != kSpillHeaderSize) {
    fail(errno == ENOSPC ? StorageErrorKind::kEnospc
                         : StorageErrorKind::kShortWrite,
         "cannot reserve spill header: " + tmp_);
  }
}

SpillFileWriter::~SpillFileWriter() {
  if (file_ != nullptr) {
    std::fclose(file_);
    std::remove(tmp_.c_str());
  }
}

void SpillFileWriter::fail(StorageErrorKind kind, const std::string& what) {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  std::remove(tmp_.c_str());
  throw StorageError(kind, what);
}

void SpillFileWriter::add_record(const std::uint8_t* data, std::size_t size) {
  const std::uint32_t len = static_cast<std::uint32_t>(size);
  std::uint8_t prefix[4];
  std::memcpy(prefix, &len, sizeof prefix);
  if (std::fwrite(prefix, 1, sizeof prefix, file_) != sizeof prefix ||
      (size > 0 && std::fwrite(data, 1, size, file_) != size)) {
    fail(errno == ENOSPC ? StorageErrorKind::kEnospc
                         : StorageErrorKind::kShortWrite,
         "short spill write: " + tmp_);
  }
  payload_crc_ = crc32(prefix, sizeof prefix, payload_crc_);
  payload_crc_ = crc32(data, size, payload_crc_);
  header_.record_count += 1;
  header_.payload_bytes += sizeof prefix + size;
}

std::uint64_t SpillFileWriter::finish() {
  apply_slow_io(fault_);
  // Injected write failures land here — after the payload streamed, before
  // anything is published — so the tmp is torn exactly where a full disk
  // or a dying kernel would tear it, and nothing visible changes.
  if (fault_.kind == StorageFaultKind::kEnospc) {
    fail(StorageErrorKind::kEnospc, "injected ENOSPC: " + tmp_);
  }
  if (fault_.kind == StorageFaultKind::kShortWrite) {
    fail(StorageErrorKind::kShortWrite, "injected short write: " + tmp_);
  }

  std::uint8_t footer[kSpillFooterSize];
  const std::uint32_t crc = payload_crc_;
  std::memcpy(footer, &crc, sizeof footer);
  if (std::fwrite(footer, 1, sizeof footer, file_) != sizeof footer) {
    fail(errno == ENOSPC ? StorageErrorKind::kEnospc
                         : StorageErrorKind::kShortWrite,
         "short spill footer write: " + tmp_);
  }

  HeaderImage image;
  encode_header(header_, image);
  if (std::fseek(file_, 0, SEEK_SET) != 0 ||
      std::fwrite(image.bytes, 1, kSpillHeaderSize, file_) !=
          kSpillHeaderSize) {
    fail(StorageErrorKind::kIo, "cannot backpatch spill header: " + tmp_);
  }

  const bool flushed = std::fflush(file_) == 0;
  const bool synced =
      flushed && fault_.kind != StorageFaultKind::kFsyncFail &&
      fsync_file(file_);
  if (!synced) {
    fail(StorageErrorKind::kFsync, "cannot sync spill file: " + tmp_);
  }
  std::fclose(file_);
  file_ = nullptr;

  try {
    atomic_publish_file(tmp_, path_);
  } catch (const std::exception& e) {
    throw StorageError(StorageErrorKind::kIo, e.what());
  }
  finished_ = true;
  const std::uint64_t total =
      kSpillHeaderSize + header_.payload_bytes + kSpillFooterSize;

  if (fault_.kind == StorageFaultKind::kBitFlip) {
    // Bit rot after a clean publish: silently flip one bit of the
    // published file. Only the next read's CRC verification notices.
    std::FILE* f = std::fopen(path_.c_str(), "r+b");
    if (f != nullptr) {
      const std::uint64_t offset = fault_.flip_seed % total;
      std::uint8_t byte = 0;
      if (std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0 &&
          std::fread(&byte, 1, 1, f) == 1) {
        byte ^= static_cast<std::uint8_t>(
            1u << ((fault_.flip_seed >> 32) % 8));
        std::fseek(f, static_cast<long>(offset), SEEK_SET);
        std::fwrite(&byte, 1, 1, f);
      }
      std::fclose(f);
    }
  }
  return total;
}

namespace {

/// Shared header validation for read and probe. Returns kOk with the
/// parsed header and total file size when the header section is sound.
SpillFileStatus check_header(std::FILE* f, std::uint64_t expected_generation,
                             SpillFileHeader* header, std::uint64_t* size) {
  std::fseek(f, 0, SEEK_END);
  const long end = std::ftell(f);
  if (end < 0) return SpillFileStatus::kMissing;
  *size = static_cast<std::uint64_t>(end);
  if (*size == 0) return SpillFileStatus::kEmpty;
  if (*size < kSpillHeaderSize) return SpillFileStatus::kTruncatedHeader;
  std::fseek(f, 0, SEEK_SET);
  std::uint8_t bytes[kSpillHeaderSize];
  if (std::fread(bytes, 1, kSpillHeaderSize, f) != kSpillHeaderSize) {
    return SpillFileStatus::kTruncatedHeader;
  }
  if (read_u32(bytes) != kSpillMagic) return SpillFileStatus::kBadMagic;
  if (read_u32(bytes + 4) != kSpillVersion) {
    return SpillFileStatus::kBadVersion;
  }
  const std::uint32_t stored_crc = read_u32(bytes + kSpillHeaderSize - 4);
  if (stored_crc != crc32(bytes, kSpillHeaderSize - 4)) {
    return SpillFileStatus::kBadHeaderCrc;
  }
  header->generation = read_u64(bytes + 8);
  header->level_index = read_u32(bytes + 16);
  header->record_count = read_u64(bytes + 24);
  header->payload_bytes = read_u64(bytes + 32);
  if (header->generation != expected_generation) {
    return SpillFileStatus::kStaleGeneration;
  }
  if (*size != kSpillHeaderSize + header->payload_bytes + kSpillFooterSize) {
    return SpillFileStatus::kTruncatedPayload;
  }
  return SpillFileStatus::kOk;
}

}  // namespace

SpillFileStatus read_spill_file(const std::string& path,
                                std::uint64_t expected_generation,
                                SpillFileHeader* header,
                                std::vector<std::vector<std::uint8_t>>* records,
                                const SpillIoHooks& hooks) {
  apply_slow_io(next_fault(hooks));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return SpillFileStatus::kMissing;
  std::uint64_t size = 0;
  SpillFileStatus status = check_header(f, expected_generation, header, &size);
  if (status != SpillFileStatus::kOk) {
    std::fclose(f);
    return status;
  }

  records->clear();
  records->reserve(header->record_count);
  std::uint32_t crc = 0;
  std::uint64_t remaining = header->payload_bytes;
  for (std::uint64_t i = 0; i < header->record_count; ++i) {
    std::uint8_t prefix[4];
    if (remaining < sizeof prefix ||
        std::fread(prefix, 1, sizeof prefix, f) != sizeof prefix) {
      std::fclose(f);
      return SpillFileStatus::kBadRecord;
    }
    remaining -= sizeof prefix;
    const std::uint32_t len = read_u32(prefix);
    if (len > remaining) {
      std::fclose(f);
      return SpillFileStatus::kBadRecord;
    }
    std::vector<std::uint8_t> record(len);
    if (len > 0 && std::fread(record.data(), 1, len, f) != len) {
      std::fclose(f);
      return SpillFileStatus::kBadRecord;
    }
    remaining -= len;
    crc = crc32(prefix, sizeof prefix, crc);
    crc = crc32(record.data(), record.size(), crc);
    records->push_back(std::move(record));
  }
  if (remaining != 0) {
    std::fclose(f);
    return SpillFileStatus::kBadRecord;
  }
  std::uint8_t footer[kSpillFooterSize];
  const bool footer_ok =
      std::fread(footer, 1, sizeof footer, f) == sizeof footer;
  std::fclose(f);
  if (!footer_ok || read_u32(footer) != crc) {
    return SpillFileStatus::kBadPayloadCrc;
  }
  return SpillFileStatus::kOk;
}

SpillFileStatus probe_spill_file(const std::string& path,
                                 std::uint64_t expected_generation,
                                 SpillFileHeader* header) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return SpillFileStatus::kMissing;
  std::uint64_t size = 0;
  const SpillFileStatus status =
      check_header(f, expected_generation, header, &size);
  std::fclose(f);
  return status;
}

}  // namespace weakkeys::util

// Minimal binary I/O used by the corpus and factor-result caches, the
// task checkpoint journal, the cluster wire codec and the spill files.
// Fixed-width little-endian integers (we only target little-endian hosts;
// the cache is a local artifact, not an interchange format).
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace weakkeys::util {

namespace detail {

inline constexpr std::array<std::uint32_t, 256> kCrc32Table = [] {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ ((c & 1u) ? 0xedb88320u : 0u);
    }
    table[i] = c;
  }
  return table;
}();

}  // namespace detail

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
/// Incremental in the zlib style: pass the CRC of the bytes so far as
/// `crc` (0 to start), so crc32(b, crc32(a)) == crc32(a + b).
inline std::uint32_t crc32(const std::uint8_t* data, std::size_t size,
                           std::uint32_t crc = 0) {
  std::uint32_t state = ~crc;
  for (std::size_t i = 0; i < size; ++i) {
    state = (state >> 8) ^ detail::kCrc32Table[(state ^ data[i]) & 0xffu];
  }
  return ~state;
}

inline std::uint32_t crc32(const std::vector<std::uint8_t>& data,
                           std::uint32_t crc = 0) {
  return crc32(data.data(), data.size(), crc);
}

class BinaryWriter {
 public:
  enum class Mode { kTruncate, kAppend };

  explicit BinaryWriter(const std::string& path, Mode mode = Mode::kTruncate)
      : file_(std::fopen(path.c_str(),
                         mode == Mode::kAppend ? "ab" : "wb")) {
    if (!file_) throw std::runtime_error("cannot open for write: " + path);
  }
  ~BinaryWriter() {
    if (file_) std::fclose(file_);
  }
  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void bytes(const std::vector<std::uint8_t>& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b.data(), b.size());
  }

  /// Pushes buffered bytes to the OS — a journal record is durable against
  /// the *process* dying once flushed (the crash model the coordinator
  /// checkpoints against; machine-level durability would need fsync).
  void flush() { std::fflush(file_); }

 private:
  void raw(const void* data, std::size_t size) {
    if (size && std::fwrite(data, 1, size, file_) != size)
      throw std::runtime_error("short write");
  }
  std::FILE* file_;
};

class BinaryReader {
 public:
  explicit BinaryReader(const std::string& path)
      : file_(std::fopen(path.c_str(), "rb")) {}
  ~BinaryReader() {
    if (file_) std::fclose(file_);
  }
  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;

  [[nodiscard]] bool ok() const { return file_ != nullptr; }

  std::uint32_t u32() {
    std::uint32_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::int64_t i64() {
    std::int64_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    std::string s(n, '\0');
    raw(s.data(), n);
    return s;
  }
  std::vector<std::uint8_t> bytes() {
    const std::uint32_t n = u32();
    std::vector<std::uint8_t> b(n);
    raw(b.data(), n);
    return b;
  }

 private:
  void raw(void* data, std::size_t size) {
    if (size && std::fread(data, 1, size, file_) != size)
      throw std::runtime_error("short read");
  }
  std::FILE* file_;
};

/// BinaryWriter's API over an in-memory buffer — used to serialize a record
/// before CRC-guarding it (the checksum needs the exact byte image).
class BufferWriter {
 public:
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void bytes(const std::vector<std::uint8_t>& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b.data(), b.size());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }

 private:
  void raw(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + size);
  }
  std::vector<std::uint8_t> buf_;
};

/// BinaryReader's API over an in-memory buffer. Throws std::runtime_error
/// on reads past the end (truncated/garbage records fail cleanly).
class BufferReader {
 public:
  explicit BufferReader(const std::vector<std::uint8_t>& buf) : buf_(buf) {}

  std::uint32_t u32() {
    std::uint32_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::int64_t i64() {
    std::int64_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint32_t n = count(1);
    std::string s(n, '\0');
    raw(s.data(), n);
    return s;
  }
  std::vector<std::uint8_t> bytes() {
    const std::uint32_t n = count(1);
    std::vector<std::uint8_t> b(n);
    raw(b.data(), n);
    return b;
  }
  /// A u32 element count, checked against the unread bytes at `min_bytes`
  /// per element before anyone sizes a buffer by it: a length field that
  /// claims more than the buffer holds throws like a short read instead of
  /// allocating what it claims.
  std::uint32_t count(std::size_t min_bytes) {
    const std::uint32_t n = u32();
    if (n > (buf_.size() - pos_) / min_bytes) {
      throw std::runtime_error("short read");
    }
    return n;
  }

  [[nodiscard]] bool exhausted() const { return pos_ == buf_.size(); }

 private:
  void raw(void* data, std::size_t size) {
    if (size > buf_.size() - pos_) throw std::runtime_error("short read");
    if (size == 0) return;  // an empty field's data() may be null
    std::memcpy(data, buf_.data() + pos_, size);
    pos_ += size;
  }
  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
};

/// Reads a whole file; nullopt when it cannot be opened.
inline std::optional<std::vector<std::uint8_t>> read_file_bytes(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::nullopt;
  std::vector<std::uint8_t> out;
  std::uint8_t chunk[1 << 16];
  for (;;) {
    const std::size_t n = std::fread(chunk, 1, sizeof chunk, f);
    out.insert(out.end(), chunk, chunk + n);
    if (n < sizeof chunk) break;
  }
  std::fclose(f);
  return out;
}

/// Footer guarding a finished cache file against truncation and bit flips:
/// the last 12 bytes are {u64 payload_size, u32 crc32(payload)}.
inline constexpr std::size_t kChecksumFooterSize = 12;

/// Appends the checksum footer over the file's current contents.
inline void append_checksum_footer(const std::string& path) {
  const auto payload = read_file_bytes(path);
  if (!payload) throw std::runtime_error("cannot read for footer: " + path);
  BinaryWriter w(path, BinaryWriter::Mode::kAppend);
  w.u64(payload->size());
  w.u32(crc32(*payload));
}

/// True iff `path` ends with a footer whose size and CRC match the payload
/// preceding it — i.e. the file is complete and uncorrupted.
inline bool verify_checksum_footer(const std::string& path) {
  const auto file = read_file_bytes(path);
  if (!file || file->size() < kChecksumFooterSize) return false;
  const std::size_t payload_size = file->size() - kChecksumFooterSize;
  const std::vector<std::uint8_t> footer(file->begin() + static_cast<std::ptrdiff_t>(payload_size),
                                         file->end());
  BufferReader r(footer);
  if (r.u64() != payload_size) return false;
  return r.u32() == crc32(file->data(), payload_size);
}

}  // namespace weakkeys::util

#include "batchgcd/task_journal.hpp"

#include <cstdio>

#include "util/atomic_file.hpp"
#include "util/binary_io.hpp"

namespace weakkeys::batchgcd {

namespace {

constexpr std::uint32_t kCheckpointMagic = 0x574b4350;  // "WKCP"
constexpr std::uint32_t kCheckpointVersion = 2;

}  // namespace

std::uint64_t corpus_fingerprint(std::span<const bn::BigInt> moduli,
                                 std::size_t k) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto byte = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  };
  const auto word = [&byte](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  word(k);
  word(moduli.size());
  for (const auto& n : moduli) {
    const auto bytes = n.to_bytes();
    word(bytes.size());
    for (const std::uint8_t b : bytes) byte(b);
  }
  return h;
}

TaskJournal::TaskJournal() = default;

TaskJournal::~TaskJournal() { close(); }

std::size_t TaskJournal::open(const std::string& path,
                              std::uint64_t fingerprint,
                              std::uint32_t total_tasks, const ApplyFn& apply) {
  close();
  path_ = path;

  std::size_t accepted = 0;
  std::vector<std::vector<std::uint8_t>> kept;
  if (const auto file = util::read_file_bytes(path)) {
    util::BufferReader r(*file);
    try {
      if (r.u32() == kCheckpointMagic && r.u32() == kCheckpointVersion &&
          r.u64() == fingerprint && r.u32() == total_tasks) {
        while (!r.exhausted()) {
          const auto payload = r.bytes();
          if (r.u32() != util::crc32(payload)) break;  // corrupted: drop tail
          // Parse the record; a malformed payload (short read) is skipped,
          // later records may still be intact.
          bool ok = false;
          try {
            util::BufferReader rec(payload);
            const std::uint32_t task = rec.u32();
            const std::uint32_t count = rec.u32();
            std::vector<TaskClaim> claims;
            claims.reserve(count);
            for (std::uint32_t c = 0; c < count; ++c) {
              TaskClaim claim;
              claim.leaf = rec.u32();
              claim.divisor = bn::BigInt::from_bytes(rec.bytes());
              claims.push_back(std::move(claim));
            }
            ok = apply(task, std::move(claims));
          } catch (const std::exception&) {
            ok = false;
          }
          if (ok) {
            kept.push_back(payload);
            ++accepted;
          }
        }
      }
    } catch (const std::exception&) {
      // Torn header or record framing: keep whatever applied cleanly.
    }
  }

  // Rewrite the validated prefix through a temporary and rename it over
  // the journal: an in-place truncate-rewrite would destroy the resume
  // point if the process died between the truncate and the last record.
  {
    const std::string tmp = util::atomic_tmp_path(path);
    util::BinaryWriter w(tmp);
    w.u32(kCheckpointMagic);
    w.u32(kCheckpointVersion);
    w.u64(fingerprint);
    w.u32(total_tasks);
    for (const auto& payload : kept) {
      w.bytes(payload);
      w.u32(util::crc32(payload));
    }
    w.flush();
  }
  util::atomic_publish_file(util::atomic_tmp_path(path), path);
  writer_ = std::make_unique<util::BinaryWriter>(
      path, util::BinaryWriter::Mode::kAppend);
  return accepted;
}

void TaskJournal::append(std::uint32_t task,
                         const std::vector<TaskClaim>& claims) {
  if (!writer_) return;
  util::BufferWriter w;
  w.u32(task);
  w.u32(static_cast<std::uint32_t>(claims.size()));
  for (const auto& claim : claims) {
    w.u32(claim.leaf);
    w.bytes(claim.divisor.to_bytes());
  }
  writer_->bytes(w.data());
  writer_->u32(util::crc32(w.data()));
  writer_->flush();
}

void TaskJournal::close() { writer_.reset(); }

void TaskJournal::remove() {
  close();
  if (!path_.empty()) std::remove(path_.c_str());
}

}  // namespace weakkeys::batchgcd

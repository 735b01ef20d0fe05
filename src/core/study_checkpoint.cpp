#include "core/study_checkpoint.hpp"

#include "core/binary_io.hpp"
#include "util/atomic_file.hpp"

namespace weakkeys::core {

namespace {
// WKC2 dropped the key's fault-tolerance flag; a WKC1 file fails the
// magic check instead of being misread with one field fewer.
constexpr std::uint32_t kStudyCheckpointMagic = 0x574b4332;  // "WKC2"
}  // namespace

const char* to_string(StudyStage s) {
  switch (s) {
    case StudyStage::kInit:
      return "init";
    case StudyStage::kIngested:
      return "ingested";
    case StudyStage::kFactored:
      return "factored";
    case StudyStage::kDone:
      return "done";
  }
  return "unknown";
}

void save_study_checkpoint(const StudyCheckpoint& cp, const std::string& path) {
  BufferWriter w;
  w.u32(kStudyCheckpointMagic);
  w.u64(cp.key.seed);
  w.u64(cp.key.scale_millionths);
  w.u32(cp.key.mr_rounds);
  w.u32(cp.key.catalog_version);
  w.u64(cp.key.noise_fingerprint);
  w.u32(cp.key.subsets);
  w.u64(cp.generation);
  w.u32(static_cast<std::uint32_t>(cp.stage));

  // Same {u64 size, u32 crc} footer every other cache artifact carries.
  std::vector<std::uint8_t> file = w.data();
  BufferWriter footer;
  footer.u64(file.size());
  footer.u32(crc32(file));
  file.insert(file.end(), footer.data().begin(), footer.data().end());
  util::atomic_write_file(path, file);
}

std::optional<StudyCheckpoint> load_study_checkpoint(
    const StudyCheckpointKey& key, const std::string& path) {
  const auto file = read_file_bytes(path);
  if (!file || file->size() < kChecksumFooterSize) return std::nullopt;
  const std::size_t payload_size = file->size() - kChecksumFooterSize;
  try {
    {
      const std::vector<std::uint8_t> tail(
          file->begin() + static_cast<std::ptrdiff_t>(payload_size),
          file->end());
      BufferReader f(tail);
      if (f.u64() != payload_size) return std::nullopt;
      if (f.u32() != crc32(file->data(), payload_size)) return std::nullopt;
    }
    const std::vector<std::uint8_t> payload(
        file->begin(),
        file->begin() + static_cast<std::ptrdiff_t>(payload_size));
    BufferReader r(payload);
    if (r.u32() != kStudyCheckpointMagic) return std::nullopt;
    StudyCheckpoint cp;
    cp.key.seed = r.u64();
    cp.key.scale_millionths = r.u64();
    cp.key.mr_rounds = r.u32();
    cp.key.catalog_version = r.u32();
    cp.key.noise_fingerprint = r.u64();
    cp.key.subsets = r.u32();
    cp.generation = r.u64();
    const std::uint32_t stage = r.u32();
    if (stage > static_cast<std::uint32_t>(StudyStage::kDone)) {
      return std::nullopt;
    }
    cp.stage = static_cast<StudyStage>(stage);
    if (!(cp.key == key)) return std::nullopt;
    return cp;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace weakkeys::core

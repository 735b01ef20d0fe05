// Generation-stamped end-to-end run checkpoint ("WKC2").
//
// The corpus cache, the gcdckpt task journal, and the factor cache
// each make *their* stage resumable; this small record ties them together
// into one crash-safe run ledger: which pipeline stage last completed, under
// exactly which configuration, and how many times the checkpoint has been
// advanced (the generation — a resumed run continues the count, so tests
// can assert "only unfinished stages re-executed" from the metrics alone).
//
// The file is tiny, CRC-guarded like every other cache artifact, and always
// published with an atomic tmp+rename write: a SIGKILL mid-save leaves
// either the previous generation or the new one, never a torn file.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace weakkeys::core {

/// Pipeline stages in completion order. A checkpoint's stage is the last
/// stage that fully completed (kInit = nothing has).
enum class StudyStage : std::uint32_t {
  kInit = 0,      ///< run started, nothing completed
  kIngested = 1,  ///< corpus built/loaded, noise applied, ingest done
  kFactored = 2,  ///< batch GCD + divisor classification done
  kDone = 3,      ///< fingerprinting done — the run finished
};

const char* to_string(StudyStage s);

/// The configuration identity a checkpoint binds to. Any mismatch on load
/// invalidates the checkpoint (resuming under a different seed, scale, or
/// noise schedule would silently mix corpora).
struct StudyCheckpointKey {
  std::uint64_t seed = 0;
  std::uint64_t scale_millionths = 0;
  std::uint32_t mr_rounds = 0;
  std::uint32_t catalog_version = 0;
  std::uint64_t noise_fingerprint = 0;
  std::uint32_t subsets = 0;

  friend bool operator==(const StudyCheckpointKey&,
                         const StudyCheckpointKey&) = default;
};

struct StudyCheckpoint {
  StudyCheckpointKey key;
  /// Monotonic save counter across the run *and* its resumes.
  std::uint64_t generation = 0;
  StudyStage stage = StudyStage::kInit;
};

/// Atomically writes `cp` (tmp + fsync + rename, CRC-footered). Throws
/// std::runtime_error on I/O failure.
void save_study_checkpoint(const StudyCheckpoint& cp, const std::string& path);

/// Loads and validates the checkpoint at `path`; nullopt when the file is
/// missing, torn, corrupt, from another format version, or bound to a
/// different configuration than `key`. Never throws.
std::optional<StudyCheckpoint> load_study_checkpoint(
    const StudyCheckpointKey& key, const std::string& path);

}  // namespace weakkeys::core

// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for (a) entropy extraction in the simulated Linux-style entropy pool
// and (b) certificate fingerprints. Streaming interface plus one-shot helper.
//
// The compression function runs on the CPU's SHA extensions (SHA-NI) when
// CPUID reports them, and otherwise in portable C++; the choice is made once
// per process. Both produce the same bytes: the portable rounds stay as the
// oracle the hardware rounds are tested against.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

namespace weakkeys::crypto {

namespace detail {

/// Runs the compression function over `count` consecutive 64-byte blocks,
/// updating the eight state words in place.
using BlockFunction = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                               std::size_t count);

/// The portable rounds.
void portable_blocks(std::uint32_t* state, const std::uint8_t* blocks,
                     std::size_t count);

/// The SHA-NI rounds, or null when the CPU (or the build target) lacks them.
BlockFunction hardware_blocks();

/// What every default-constructed Sha256 runs: hardware_blocks() when it is
/// non-null, else portable_blocks. Resolved on first use.
BlockFunction default_blocks();

}  // namespace detail

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256();
  /// Runs `blocks` instead of the default; tests compare the two.
  explicit Sha256(detail::BlockFunction blocks);

  /// Absorbs `data`. May be called repeatedly.
  void update(std::span<const std::uint8_t> data);
  void update(const std::string& text);

  /// Finalizes and returns the digest. The object is then reset and can be
  /// reused for a new message.
  Digest finish();

  /// One-shot convenience.
  static Digest hash(std::span<const std::uint8_t> data);
  static Digest hash(const std::string& text);

 private:
  void reset();

  detail::BlockFunction blocks_;
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// Lowercase hex of a digest.
std::string digest_hex(const Sha256::Digest& digest);

}  // namespace weakkeys::crypto

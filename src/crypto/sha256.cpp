#include "crypto/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/hex.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define WEAKKEYS_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define WEAKKEYS_SHA_NI 0
#endif

namespace weakkeys::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInit = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

}  // namespace

namespace detail {

void portable_blocks(std::uint32_t* state, const std::uint8_t* blocks,
                     std::size_t count) {
  for (; count > 0; --count, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      const std::uint8_t* word = blocks + 4 * i;
      w[i] = std::uint32_t{word[0]} << 24 | std::uint32_t{word[1]} << 16 |
             std::uint32_t{word[2]} << 8 | std::uint32_t{word[3]};
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          std::rotr(w[i - 15], 7) ^ std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          std::rotr(w[i - 2], 17) ^ std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if WEAKKEYS_SHA_NI

namespace {

/// The SHA-NI rounds. The state lives in two registers as ABEF and CDGH
/// (the layout SHA256RNDS2 works on); each iteration runs four rounds and,
/// for the first twelve, extends the message schedule by four words:
/// W[j+4] = msg2(msg1(W[j], W[j+1]) + W[j+2..j+3] shifted by one word, W[j+3]).
__attribute__((target("sha,sse4.1"))) void sha_ni_blocks(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t count) {
  // Byte-swaps each 32-bit word: the message is big-endian.
  const __m128i swap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  dcba = _mm_shuffle_epi32(dcba, 0xB1);              // CDAB
  hgfe = _mm_shuffle_epi32(hgfe, 0x1B);              // EFGH
  __m128i abef = _mm_alignr_epi8(dcba, hgfe, 8);     // ABEF
  __m128i cdgh = _mm_blend_epi16(hgfe, dcba, 0xF0);  // CDGH

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
    for (int j = 0; j < 4; ++j) {
      w[j] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * j)), swap);
    }
#pragma GCC unroll 16
    for (int j = 0; j < 16; ++j) {
      __m128i wk = _mm_add_epi32(
          w[j % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * j])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      if (j < 12) {
        const __m128i mixed = _mm_add_epi32(
            _mm_sha256msg1_epu32(w[j % 4], w[(j + 1) % 4]),
            _mm_alignr_epi8(w[(j + 3) % 4], w[(j + 2) % 4], 4));
        w[j % 4] = _mm_sha256msg2_epu32(mixed, w[(j + 3) % 4]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));  // HGFE
}

bool cpu_has_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return ssse3 && sse41 && (ebx & bit_SHA) != 0;
}

}  // namespace

BlockFunction hardware_blocks() {
  static const BlockFunction resolved = cpu_has_sha_ni() ? sha_ni_blocks : nullptr;
  return resolved;
}

#else

BlockFunction hardware_blocks() { return nullptr; }

#endif

BlockFunction default_blocks() {
  const BlockFunction hardware = hardware_blocks();
  return hardware != nullptr ? hardware : portable_blocks;
}

}  // namespace detail

Sha256::Sha256() : Sha256(detail::default_blocks()) {}

Sha256::Sha256(detail::BlockFunction blocks) : blocks_(blocks) { reset(); }

void Sha256::reset() {
  state_ = kInit;
  buffered_ = 0;
  total_bytes_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) {
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == buffer_.size()) {
      blocks_(state_.data(), buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  if (const std::size_t whole = (data.size() - offset) / 64; whole > 0) {
    blocks_(state_.data(), data.data() + offset, whole);
    offset += 64 * whole;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

void Sha256::update(const std::string& text) {
  update(std::span(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

Sha256::Digest Sha256::finish() {
  const std::uint64_t bit_len = total_bytes_ * 8;
  // 0x80, zeros to 56 mod 64 (spilling into a second block when the first
  // has no room for the length), then the big-endian bit length.
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, 64 - buffered_);
    blocks_(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  blocks_(state_.data(), buffer_.data(), 1);

  Digest digest{};
  for (int i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  reset();
  return digest;
}

Sha256::Digest Sha256::hash(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Sha256::Digest Sha256::hash(const std::string& text) {
  Sha256 h;
  h.update(text);
  return h.finish();
}

std::string digest_hex(const Sha256::Digest& digest) {
  return util::to_hex(digest);
}

}  // namespace weakkeys::crypto

#include <gtest/gtest.h>

#include <iostream>
#include <vector>

#include "crypto/sha256.hpp"

namespace weakkeys::crypto {
namespace {

std::string hex(const std::string& message) {
  return digest_hex(Sha256::hash(message));
}

// FIPS 180-4 / NIST CAVP known-answer vectors.
TEST(Sha256, EmptyMessage) {
  EXPECT_EQ(hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(digest_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  const std::string message =
      "The quick brown fox jumps over the lazy dog, repeatedly and at length, "
      "to exercise buffering across block boundaries. 0123456789abcdef";
  // Split at every possible point: buffering must not matter.
  for (std::size_t split = 0; split <= message.size(); split += 7) {
    Sha256 h;
    h.update(message.substr(0, split));
    h.update(message.substr(split));
    EXPECT_EQ(digest_hex(h.finish()), hex(message)) << "split=" << split;
  }
}

TEST(Sha256, ExactBlockBoundaries) {
  // 55/56/63/64/65 bytes are the padding-logic corner cases.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string m(len, 'x');
    Sha256 h;
    h.update(m);
    EXPECT_EQ(digest_hex(h.finish()), hex(m)) << "len=" << len;
  }
}

TEST(Sha256, ObjectReusableAfterFinish) {
  Sha256 h;
  h.update(std::string("first"));
  (void)h.finish();
  h.update(std::string("abc"));
  EXPECT_EQ(digest_hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  EXPECT_NE(hex("abc"), hex("abd"));
  EXPECT_NE(hex("abc"), hex("abc "));
}

// The SHA-NI rounds against the portable ones, called explicitly: every
// message length from 0 to 300 bytes (every padding case, up to five
// blocks), and every two-way streaming split of a 200-byte message.
TEST(Sha256, HardwareRoundsMatchPortable) {
  const detail::BlockFunction hardware = detail::hardware_blocks();
  std::cout << "[ sha256   ] default block function: "
            << (detail::default_blocks() == detail::portable_blocks ? "portable"
                                                                    : "sha-ni")
            << std::endl;
  if (hardware == nullptr) GTEST_SKIP() << "CPU lacks SHA extensions";

  std::vector<std::uint8_t> message(300);
  for (std::size_t i = 0; i < message.size(); ++i) {
    message[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  auto digest = [&message](detail::BlockFunction blocks, std::size_t len,
                           std::size_t split) {
    Sha256 h(blocks);
    const std::span<const std::uint8_t> bytes(message.data(), len);
    h.update(bytes.first(split));
    h.update(bytes.subspan(split));
    return h.finish();
  };
  for (std::size_t len = 0; len <= message.size(); ++len) {
    EXPECT_EQ(digest(hardware, len, 0), digest(detail::portable_blocks, len, 0))
        << "len=" << len;
  }
  for (std::size_t split = 0; split <= 200; ++split) {
    EXPECT_EQ(digest(hardware, 200, split), digest(detail::portable_blocks, 200, 0))
        << "split=" << split;
  }
}

}  // namespace
}  // namespace weakkeys::crypto

#include <gtest/gtest.h>

#include <array>

#include "rng/entropy_pool.hpp"
#include "rng/prng_source.hpp"
#include "rng/urandom.hpp"

namespace weakkeys::rng {
namespace {

std::array<std::uint8_t, 32> draw32(bn::RandomSource& src) {
  std::array<std::uint8_t, 32> out{};
  src.fill(out);
  return out;
}

// -------------------------------------------------------- EntropyPool ----

TEST(EntropyPool, DeterministicForIdenticalMixes) {
  EntropyPool a, b;
  a.mix("same seed", 16);
  b.mix("same seed", 16);
  std::array<std::uint8_t, 64> out_a{}, out_b{};
  a.extract(out_a);
  b.extract(out_b);
  EXPECT_EQ(out_a, out_b);
}

TEST(EntropyPool, DivergesOnDifferentMixes) {
  EntropyPool a, b;
  a.mix("seed one", 16);
  b.mix("seed two", 16);
  std::array<std::uint8_t, 32> out_a{}, out_b{};
  a.extract(out_a);
  b.extract(out_b);
  EXPECT_NE(out_a, out_b);
}

TEST(EntropyPool, SuccessiveExtractsDiffer) {
  EntropyPool pool;
  pool.mix("seed", 16);
  std::array<std::uint8_t, 32> first{}, second{};
  pool.extract(first);
  pool.extract(second);
  EXPECT_NE(first, second);  // anti-backtracking feedback advances state
}

TEST(EntropyPool, EntropyAccountingSaturates) {
  EntropyPool pool;
  EXPECT_FALSE(pool.seeded());
  EXPECT_EQ(pool.entropy_estimate_bits(), 0.0);
  pool.mix_u64(1, 100);
  EXPECT_FALSE(pool.seeded(128));
  pool.mix_u64(2, 100);
  EXPECT_TRUE(pool.seeded(128));
  pool.mix_u64(3, 100);
  EXPECT_EQ(pool.entropy_estimate_bits(), 256.0);  // saturated
}

TEST(EntropyPool, MixOrderMatters) {
  EntropyPool a, b;
  a.mix("x", 8);
  a.mix("y", 8);
  b.mix("y", 8);
  b.mix("x", 8);
  std::array<std::uint8_t, 16> out_a{}, out_b{};
  a.extract(out_a);
  b.extract(out_b);
  EXPECT_NE(out_a, out_b);
}

// ----------------------------------------------------------- clamping ----

TEST(ClampToBits, Bounds) {
  EXPECT_EQ(clamp_to_bits(0xffffffffffffffffULL, 0), 0u);
  EXPECT_EQ(clamp_to_bits(0xffffffffffffffffULL, -3), 0u);
  EXPECT_EQ(clamp_to_bits(0xffffffffffffffffULL, 8), 0xffu);
  EXPECT_EQ(clamp_to_bits(0x1234ULL, 64), 0x1234ULL);
  EXPECT_EQ(clamp_to_bits(0x1234ULL, 4), 0x4ULL);
}

// ----------------------------------------------------- SimulatedUrandom ----

TEST(SimulatedUrandom, BootCollisionMeansIdenticalStreams) {
  const RngFlawModel flaw{.boot_entropy_bits = 4, .divergence_entropy_bits = 40};
  // Raw boot draws differ but collide after clamping to 4 bits.
  SimulatedUrandom a("fw-1.0", flaw, 0x03, 111);
  SimulatedUrandom b("fw-1.0", flaw, 0xf3, 222);
  EXPECT_EQ(draw32(a), draw32(b));
}

TEST(SimulatedUrandom, DivergenceEventSplitsCollidedStreams) {
  const RngFlawModel flaw{.boot_entropy_bits = 4, .divergence_entropy_bits = 40};
  SimulatedUrandom a("fw-1.0", flaw, 3, 111);
  SimulatedUrandom b("fw-1.0", flaw, 3, 222);
  EXPECT_EQ(draw32(a), draw32(b));  // same up to the event
  a.stir_divergence_event();
  b.stir_divergence_event();
  EXPECT_NE(draw32(a), draw32(b));  // diverged afterwards
}

TEST(SimulatedUrandom, NoStirModelStaysIdentical) {
  const RngFlawModel flaw{.boot_entropy_bits = 4, .divergence_entropy_bits = -1};
  EXPECT_FALSE(flaw.stirs_between_primes());
  SimulatedUrandom a("fw-1.0", flaw, 3, 111);
  SimulatedUrandom b("fw-1.0", flaw, 3, 222);
  a.stir_divergence_event();  // no-op
  b.stir_divergence_event();
  EXPECT_EQ(draw32(a), draw32(b));  // identical keys forever (default certs)
}

TEST(SimulatedUrandom, DifferentFirmwareTagsDiverge) {
  const RngFlawModel flaw{.boot_entropy_bits = 0, .divergence_entropy_bits = 40};
  SimulatedUrandom a("fw-1.0", flaw, 0, 0);
  SimulatedUrandom b("fw-2.0", flaw, 0, 0);
  EXPECT_NE(draw32(a), draw32(b));
}

TEST(SimulatedUrandom, HealthyBootEntropyRarelyCollides) {
  const RngFlawModel flaw{.boot_entropy_bits = 64, .divergence_entropy_bits = 40};
  SimulatedUrandom a("fw-1.0", flaw, 12345, 0);
  SimulatedUrandom b("fw-1.0", flaw, 67890, 0);
  EXPECT_NE(draw32(a), draw32(b));
}

TEST(SimulatedUrandom, MultipleStirEventsKeepDiverging) {
  const RngFlawModel flaw{.boot_entropy_bits = 2, .divergence_entropy_bits = 44};
  SimulatedUrandom a("fw-1.0", flaw, 1, 5);
  SimulatedUrandom b("fw-1.0", flaw, 1, 5);
  // Same divergence seed: still identical after one stir...
  a.stir_divergence_event();
  b.stir_divergence_event();
  EXPECT_EQ(draw32(a), draw32(b));
  // ...and after another (deterministic per-device event stream).
  a.stir_divergence_event();
  b.stir_divergence_event();
  EXPECT_EQ(draw32(a), draw32(b));
}

// -------------------------------------------------------- PrngSource ----

TEST(PrngRandomSource, DeterministicBySeed) {
  PrngRandomSource a(9), b(9), c(10);
  const auto va = draw32(a);
  EXPECT_EQ(va, draw32(b));
  EXPECT_NE(va, draw32(c));
}

TEST(PrngRandomSource, FillsOddSizes) {
  PrngRandomSource src(1);
  std::array<std::uint8_t, 5> buf{};
  src.fill(buf);
  std::array<std::uint8_t, 5> zero{};
  EXPECT_NE(buf, zero);  // overwhelmingly likely
}

}  // namespace
}  // namespace weakkeys::rng

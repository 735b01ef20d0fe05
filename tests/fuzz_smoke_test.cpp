// Deterministic fuzz harness for the total-parsing surfaces.
//
// The contract under test: for ANY input bytes, Certificate::try_decode,
// the TlvReader try_* API, load_dataset and every cluster wire decoder
// (cluster::*Msg::decode, which reads bytes from remote dial-in workers)
// return an error or a valid object — no crash, no exception, no UB (the CI
// fuzz-smoke job runs this under ASan/UBSan) — and the throwing wrappers
// throw exactly when the total API reports an error.
// Everything is seeded, so a failure reproduces from the iteration count.
//
// Iteration count comes from WEAKKEYS_FUZZ_ITERS (default keeps the suite
// fast; CI cranks it up).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "cert/certificate.hpp"
#include "cert/tlv.hpp"
#include "cluster/protocol.hpp"
#include "core/scan_store.hpp"
#include "rng/prng_source.hpp"
#include "rsa/keygen.hpp"
#include "util/prng.hpp"

namespace weakkeys::cert {
namespace {

std::size_t fuzz_iters(std::size_t default_iters) {
  if (const char* env = std::getenv("WEAKKEYS_FUZZ_ITERS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return default_iters;
}

std::vector<std::vector<std::uint8_t>> seed_encodings() {
  std::vector<std::vector<std::uint8_t>> seeds;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    rng::PrngRandomSource rng(s);
    rsa::KeygenOptions opts;
    opts.modulus_bits = 256;
    opts.miller_rabin_rounds = 8;
    DistinguishedName dn;
    dn.add("CN", "fuzz-host-" + std::to_string(s));
    dn.add("O", "Fuzz Networks");
    seeds.push_back(
        make_self_signed(dn, {"fuzz.example"},
                         {util::Date(2010, 1, 1), util::Date(2020, 1, 1)},
                         rsa::generate_key(rng, opts), s)
            .encode());
  }
  return seeds;
}

/// Applies 1-8 structure-unaware mutations: truncation, byte flips, inserts,
/// erases, cross-seed splices, and 32-bit length-field extremes.
std::vector<std::uint8_t> mutate(
    const std::vector<std::vector<std::uint8_t>>& seeds,
    util::Xoshiro256& rng) {
  std::vector<std::uint8_t> buf = seeds[rng.below(seeds.size())];
  const std::uint64_t mutations = 1 + rng.below(8);
  for (std::uint64_t m = 0; m < mutations && !buf.empty(); ++m) {
    switch (rng.below(6)) {
      case 0:  // truncate
        buf.resize(rng.below(buf.size() + 1));
        break;
      case 1:  // flip a byte
        buf[rng.below(buf.size())] ^=
            static_cast<std::uint8_t>(1 + rng.below(255));
        break;
      case 2:  // insert a random byte
        buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(
                                     rng.below(buf.size() + 1)),
                   static_cast<std::uint8_t>(rng.below(256)));
        break;
      case 3:  // erase a byte
        buf.erase(buf.begin() +
                  static_cast<std::ptrdiff_t>(rng.below(buf.size())));
        break;
      case 4: {  // splice a chunk from another seed
        const auto& other = seeds[rng.below(seeds.size())];
        const std::size_t src = rng.below(other.size());
        const std::size_t dst = rng.below(buf.size());
        const std::size_t len =
            rng.below(std::min(other.size() - src, buf.size() - dst) + 1);
        std::copy(other.begin() + static_cast<std::ptrdiff_t>(src),
                  other.begin() + static_cast<std::ptrdiff_t>(src + len),
                  buf.begin() + static_cast<std::ptrdiff_t>(dst));
        break;
      }
      case 5: {  // overwrite a presumed length field with an extreme value
        if (buf.size() < 5) break;
        const std::size_t pos = rng.below(buf.size() - 4);
        const std::uint32_t extreme =
            rng.chance(0.5) ? 0xffffffffu
                            : 0xfffffff0u + static_cast<std::uint32_t>(
                                                rng.below(16));
        buf[pos] = static_cast<std::uint8_t>(extreme);
        buf[pos + 1] = static_cast<std::uint8_t>(extreme >> 8);
        buf[pos + 2] = static_cast<std::uint8_t>(extreme >> 16);
        buf[pos + 3] = static_cast<std::uint8_t>(extreme >> 24);
        break;
      }
    }
  }
  return buf;
}

TEST(FuzzSmoke, TryDecodeIsTotalOnMutatedCertificates) {
  const auto seeds = seed_encodings();
  util::Xoshiro256 rng(0xf022deca7ULL);
  const std::size_t iters = fuzz_iters(20000);
  std::size_t survived = 0;

  for (std::size_t i = 0; i < iters; ++i) {
    const auto buf = mutate(seeds, rng);
    DecodeResult result;
    ASSERT_NO_THROW(result = Certificate::try_decode(buf)) << "iteration " << i;
    // Exactly one of: a certificate, or an error with a field attribution.
    ASSERT_EQ(result.ok(), result.error == ParseError::kNone)
        << "iteration " << i;
    if (result.ok()) {
      ++survived;
      EXPECT_TRUE(result.field.empty());
      // A decoded certificate must be re-encodable without incident.
      ASSERT_NO_THROW((void)result.cert->encode()) << "iteration " << i;
    } else {
      EXPECT_FALSE(result.field.empty()) << "iteration " << i;
      EXPECT_NE(std::string(to_string(result.error)), "");
    }
    // The throwing wrapper is a thin veneer: throws iff try_decode fails.
    if (i % 16 == 0) {
      if (result.ok()) {
        EXPECT_NO_THROW((void)Certificate::decode(buf));
      } else {
        EXPECT_THROW((void)Certificate::decode(buf), TlvError);
      }
    }
  }
  // Mutations that only touch the signature payload survive decoding; the
  // corpus must exercise both outcomes.
  EXPECT_GT(survived, 0u);
  EXPECT_LT(survived, iters);
}

TEST(FuzzSmoke, TryDecodeIsTotalOnRandomGarbage) {
  util::Xoshiro256 rng(0xbadbadbadULL);
  const std::size_t iters = fuzz_iters(20000);
  for (std::size_t i = 0; i < iters; ++i) {
    std::vector<std::uint8_t> buf(rng.below(300));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.below(256));
    DecodeResult result;
    ASSERT_NO_THROW(result = Certificate::try_decode(buf)) << "iteration " << i;
    ASSERT_EQ(result.ok(), result.error == ParseError::kNone)
        << "iteration " << i;
  }
}

TEST(FuzzSmoke, TlvReaderOpSequencesNeverCrash) {
  const auto seeds = seed_encodings();
  util::Xoshiro256 rng(0x7175ebffULL);
  const std::size_t iters = fuzz_iters(20000);

  for (std::size_t i = 0; i < iters; ++i) {
    const auto buf = mutate(seeds, rng);
    TlvReader r(buf);
    // Random op sequence with random tags: must never throw from the try_*
    // API, and the position must stay inside the buffer.
    for (int op = 0; op < 12; ++op) {
      const auto tag = static_cast<std::uint8_t>(rng.below(256));
      switch (rng.below(5)) {
        case 0: {
          std::uint8_t t = 0;
          (void)r.try_peek_tag(t);
          break;
        }
        case 1: {
          std::span<const std::uint8_t> out;
          (void)r.try_read_bytes(tag, out);
          break;
        }
        case 2: {
          std::string out;
          (void)r.try_read_string(tag, out);
          break;
        }
        case 3: {
          std::uint64_t out = 0;
          (void)r.try_read_u64(tag, out);
          break;
        }
        case 4: {
          TlvReader nested;
          (void)r.try_read_nested(tag, nested);
          break;
        }
      }
      ASSERT_LE(r.remaining(), buf.size()) << "iteration " << i;
    }
  }
}

TEST(FuzzSmoke, LoadDatasetNeverThrowsOnMutatedStores) {
  // A minimal hand-built dataset keeps each iteration's I/O tiny.
  rng::PrngRandomSource krng(77);
  rsa::KeygenOptions opts;
  opts.modulus_bits = 256;
  opts.miller_rabin_rounds = 8;
  DistinguishedName dn;
  dn.add("CN", "store-host");
  const Certificate cert = make_self_signed(
      dn, {}, {util::Date(2012, 1, 1), util::Date(2020, 1, 1)},
      rsa::generate_key(krng, opts), 1);

  netsim::ScanSnapshot snap;
  snap.date = util::Date(2013, 1, 1);
  snap.source = "fuzz";
  for (std::uint32_t i = 0; i < 4; ++i) {
    netsim::HostRecord rec;
    rec.ip = netsim::Ipv4(i);
    rec.certificate = std::make_shared<const Certificate>(cert);
    snap.records.push_back(std::move(rec));
  }
  netsim::ScanDataset ds;
  ds.snapshots.push_back(std::move(snap));

  const core::StoreKey key{1, 2, 3, 4};
  const std::string path = "fuzz_store_test.tmp";
  core::save_dataset(ds, key, path);
  std::vector<std::uint8_t> pristine;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    int c = 0;
    while ((c = std::fgetc(f)) != EOF) {
      pristine.push_back(static_cast<std::uint8_t>(c));
    }
    std::fclose(f);
  }

  util::Xoshiro256 rng(0x570fefa11ULL);
  const std::size_t iters = fuzz_iters(20000) / 40;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < iters; ++i) {
    const auto buf = mutate({pristine}, rng);
    {
      std::FILE* f = std::fopen(path.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      if (!buf.empty()) std::fwrite(buf.data(), 1, buf.size(), f);
      std::fclose(f);
    }
    std::optional<netsim::ScanDataset> loaded;
    core::DatasetLoadStatus status = core::DatasetLoadStatus::kLoaded;
    ASSERT_NO_THROW(loaded = core::load_dataset(key, path, &status))
        << "iteration " << i;
    if (!loaded.has_value()) {
      ++rejected;
      EXPECT_NE(status, core::DatasetLoadStatus::kLoaded) << "iteration " << i;
    }
  }
  // The length+CRC footer rejects essentially every mutation.
  EXPECT_GT(rejected, 0u);
  std::remove(path.c_str());
}

/// Mutates encodings of `messages` and decodes each result: decode must
/// return nullopt or a message, and a decoded message must survive its own
/// encode/decode round trip. Both outcomes must occur.
template <typename Msg>
void fuzz_wire_decoder(const char* name, const std::vector<Msg>& messages,
                       std::uint64_t seed) {
  std::vector<std::vector<std::uint8_t>> seeds;
  for (const Msg& m : messages) seeds.push_back(m.encode());
  util::Xoshiro256 rng(seed);
  const std::size_t iters = fuzz_iters(20000) / 10;
  std::size_t decoded = 0;
  for (std::size_t i = 0; i < iters; ++i) {
    const auto buf = mutate(seeds, rng);
    std::optional<Msg> msg;
    ASSERT_NO_THROW(msg = Msg::decode(buf)) << name << " iteration " << i;
    if (!msg) continue;
    ++decoded;
    std::optional<Msg> again;
    ASSERT_NO_THROW(again = Msg::decode(msg->encode()))
        << name << " iteration " << i;
    ASSERT_TRUE(again.has_value()) << name << " iteration " << i;
  }
  EXPECT_GT(decoded, 0u) << name;
  EXPECT_LT(decoded, iters) << name;
}

TEST(FuzzSmoke, ClusterWireDecodersAreTotalOnMutatedEncodings) {
  using bn::BigInt;
  namespace cl = cluster;
  fuzz_wire_decoder<cl::HelloMsg>("Hello", {{7, 1234}, {0, 0}}, 0xc1);
  fuzz_wire_decoder<cl::HelloAckMsg>("HelloAck", {{0xdeadbeef, 31, 200}},
                                     0xc2);
  fuzz_wire_decoder<cl::ReconnectHelloMsg>("ReconnectHello",
                                           {{3, 4242, 31, 16}}, 0xc3);
  fuzz_wire_decoder<cl::ReconnectAckMsg>("ReconnectAck", {{1, 16}, {0, 0}},
                                         0xc4);

  cl::SubsetDataMsg subset;
  subset.subset = 3;
  subset.moduli = {BigInt(77), BigInt(221), (BigInt(1) << 200) + BigInt(3)};
  cl::SubsetDataMsg empty_subset;
  fuzz_wire_decoder<cl::SubsetDataMsg>("SubsetData", {subset, empty_subset},
                                       0xc5);

  cl::TaskAssignMsg assign{11, 2, 3, 1};
  assign.trace_id = 0xfeedfacecafef00dull;
  assign.parent_span = 77;
  assign.assign_ts_ns = 123456789012345;
  fuzz_wire_decoder<cl::TaskAssignMsg>("TaskAssign", {assign}, 0xc6);

  cl::TaskResultMsg result;
  result.task = 5;
  result.worker_id = 1;
  result.result_seq = 9;
  result.claims = {{4, BigInt(17)}, {9, BigInt(1) << 80}};
  fuzz_wire_decoder<cl::TaskResultMsg>("TaskResult",
                                       {result, cl::TaskResultMsg{}}, 0xc7);

  fuzz_wire_decoder<cl::PingMsg>("Ping", {{42, 99999, 7, 5}}, 0xc8);
  fuzz_wire_decoder<cl::PongMsg>("Pong", {{42, 99999, 3, 17, 2, 31337}},
                                 0xc9);

  cl::TelemetrySnapshotMsg snap;
  snap.worker_id = 3;
  snap.seq = 9;
  snap.first_span_index = 40;
  snap.rss_kb = 2048;
  snap.counters = {{"tasks_executed", 7}, {"compute_us", 88000}};
  snap.gauges = {{"queue_depth", 2}};
  cl::TelemetrySpan span;
  span.name = "task.compute";
  span.ts_us = 10;
  span.dur_us = 20;
  span.args = {{"task", 11}, {"attempt", 1}};
  snap.spans = {span, span};
  fuzz_wire_decoder<cl::TelemetrySnapshotMsg>("TelemetrySnapshot", {snap},
                                              0xca);

  fuzz_wire_decoder<cl::StreamBeginMsg>("StreamBegin",
                                        {{9, 2, 1u << 20, 0xabadcafe}}, 0xcb);
  cl::StreamChunkMsg chunk;
  chunk.stream_id = 9;
  chunk.offset = 65536;
  chunk.data = {0x00, 0x7f, 0xff, 0x10, 0x20};
  fuzz_wire_decoder<cl::StreamChunkMsg>("StreamChunk", {chunk}, 0xcc);
  fuzz_wire_decoder<cl::StreamAckMsg>("StreamAck", {{9, 65540}}, 0xcd);
}

}  // namespace
}  // namespace weakkeys::cert

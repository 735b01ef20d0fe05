#include "rng/entropy_pool.hpp"

#include <algorithm>
#include <cstring>

#include "obs/prof_stack.hpp"

namespace weakkeys::rng {

void EntropyPool::mix(std::span<const std::uint8_t> data, double entropy_bits) {
  crypto::Sha256 h;
  h.update(std::span<const std::uint8_t>(state_.data(), state_.size()));
  h.update(data);
  state_ = h.finish();
  entropy_estimate_ = std::min(256.0, entropy_estimate_ + entropy_bits);
}

void EntropyPool::mix(const std::string& data, double entropy_bits) {
  mix(std::span(reinterpret_cast<const std::uint8_t*>(data.data()), data.size()),
      entropy_bits);
}

void EntropyPool::mix_u64(std::uint64_t value, double entropy_bits) {
  std::uint8_t buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<std::uint8_t>(value >> (8 * i));
  mix(std::span<const std::uint8_t>(buf, 8), entropy_bits);
}

void EntropyPool::extract(std::span<std::uint8_t> out) {
  obs::prof::Frame frame("rng.extract");
  std::size_t produced = 0;
  while (produced < out.size()) {
    crypto::Sha256 h;
    h.update(std::span<const std::uint8_t>(state_.data(), state_.size()));
    std::uint8_t ctr[8];
    for (int i = 0; i < 8; ++i)
      ctr[i] = static_cast<std::uint8_t>(extract_counter_ >> (8 * i));
    h.update(std::span<const std::uint8_t>(ctr, 8));
    const auto block = h.finish();
    ++extract_counter_;

    const std::size_t take = std::min(block.size(), out.size() - produced);
    std::memcpy(out.data() + produced, block.data(), take);
    produced += take;

    // Feed the output block back so state advances (anti-backtracking).
    crypto::Sha256 fb;
    fb.update(std::span<const std::uint8_t>(state_.data(), state_.size()));
    fb.update(block);
    state_ = fb.finish();
  }
}

}  // namespace weakkeys::rng

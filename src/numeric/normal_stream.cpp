#include "numeric/normal_stream.hpp"

namespace ssnkit::numeric {

namespace {

// MT19937's constants: degree n = 624, middle offset m = 397, the twist
// matrix's last row a, the seeding multiplier f and the tempering shifts and
// masks (u, d = all ones, s, b, t, c, l).
constexpr std::size_t kShift = 397;
constexpr std::uint32_t kMatrixA = 0x9908b0dfu;
constexpr std::uint32_t kUpperMask = 0x80000000u;
constexpr std::uint32_t kLowerMask = 0x7fffffffu;
constexpr std::uint32_t kInitMultiplier = 1812433253u;
constexpr std::uint32_t kTemperB = 0x9d2c5680u;
constexpr std::uint32_t kTemperC = 0xefc60000u;

std::uint32_t twist(std::uint32_t cur, std::uint32_t next, std::uint32_t far) {
  const std::uint32_t y = (cur & kUpperMask) | (next & kLowerMask);
  return far ^ (y >> 1) ^ ((0u - (y & 1u)) & kMatrixA);
}

}  // namespace

NormalStream::NormalStream(std::uint32_t seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kWords; ++i) {
    const std::uint32_t prev = state_[i - 1];
    state_[i] = kInitMultiplier * (prev ^ (prev >> 30)) + std::uint32_t(i);
  }
}

void NormalStream::refill() {
  constexpr std::size_t kSplit = kWords - kShift;
  for (std::size_t k = 0; k < kSplit; ++k)
    state_[k] = twist(state_[k], state_[k + 1], state_[k + kShift]);
  for (std::size_t k = kSplit; k < kWords - 1; ++k)
    state_[k] = twist(state_[k], state_[k + 1], state_[k - kSplit]);
  state_[kWords - 1] = twist(state_[kWords - 1], state_[0], state_[kShift - 1]);

  for (std::size_t k = 0; k < kWords; ++k) {
    std::uint32_t z = state_[k];
    z ^= z >> 11;
    z ^= (z << 7) & kTemperB;
    z ^= (z << 15) & kTemperC;
    z ^= z >> 18;
    block_[k] = z;
  }
  pos_ = 0;
}

}  // namespace ssnkit::numeric

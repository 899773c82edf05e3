// Standard normal variates for the Monte Carlo factor draws. The words come
// from MT19937 (std::mt19937's parameters), generated a block of 624 at a
// time: twist the whole state, then temper it into an output block. Two
// words make one uniform in [0, 1) the way generate_canonical<double, 53>
// does, and the Marsaglia polar method turns uniform pairs into normals with
// the same rejection test, arithmetic and saved second value as libstdc++'s
// std::normal_distribution<double>. The stream is therefore bit-identical to
// std::normal_distribution<double>(0, 1) over std::mt19937 from libstdc++,
// on any standard library: libc++ draws its normals another way, so the
// std:: pair would not give a Monte Carlo seed the same answer everywhere.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace ssnkit::numeric {

class NormalStream {
 public:
  explicit NormalStream(std::uint32_t seed);

  /// Next MT19937 output word: std::mt19937's sequence for the same seed.
  std::uint32_t next_word() {
    if (pos_ == kWords) refill();
    return block_[pos_++];
  }

  /// Next N(0, 1) variate.
  double next() {
    if (has_saved_) {
      has_saved_ = false;
      return saved_;
    }
    double x = 0.0;
    double y = 0.0;
    double r2 = 0.0;
    do {
      x = 2.0 * next_canonical() - 1.0;
      y = 2.0 * next_canonical() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);  // ssnlint-ignore(SSN-L001)
    const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
    // libstdc++ returns value * stddev + mean; with (1, 0) that is + 0.0,
    // which turns the -0.0 of an r2 == 1 draw into +0.0.
    saved_ = x * mult + 0.0;
    has_saved_ = true;
    return y * mult + 0.0;
  }

 private:
  static constexpr std::size_t kWords = 624;

  /// Uniform in [0, 1): (w0 + w1·2^32) rounded to double, times 2^-64, with
  /// a sum that rounds up to 2^64 clamped to the largest double below 1.
  double next_canonical() {
    const double lo = double(next_word());
    const double hi = double(next_word());
    const double u = (lo + hi * 0x1p32) * 0x1p-64;
    return u < 1.0 ? u : 0x1.fffffffffffffp-1;
  }

  /// Twist the state into its next 624 words and temper them into block_.
  void refill();

  std::array<std::uint32_t, kWords> state_{};
  std::array<std::uint32_t, kWords> block_{};
  std::size_t pos_ = kWords;
  double saved_ = 0.0;
  bool has_saved_ = false;
};

}  // namespace ssnkit::numeric

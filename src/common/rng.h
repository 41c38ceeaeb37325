// Deterministic pseudo-random number generation.
//
// All randomness in the library flows through Rng so that runs are exactly
// reproducible given a seed. The generator is splitmix64/xoshiro256** —
// small, fast, and with well-understood statistical quality; we do not use
// <random> engines because their stream is not specified identically across
// standard library implementations.

#ifndef MRMB_COMMON_RNG_H_
#define MRMB_COMMON_RNG_H_

#include <bit>
#include <cstdint>
#include <cstring>

#include "common/logging.h"

namespace mrmb {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { Reseed(seed); }

  // Re-initializes the state from `seed` via splitmix64 so that nearby seeds
  // give unrelated streams.
  void Reseed(uint64_t seed) {
    uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  // Next raw 64-bit value (xoshiro256**).
  uint64_t Next64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). `bound` must be positive. Uses Lemire's
  // multiply-shift rejection method for unbiased results.
  uint64_t Uniform(uint64_t bound) {
    MRMB_CHECK_GT(bound, 0u);
    uint64_t x = Next64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<uint64_t>(m);
    if (low < bound) {
      const uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = Next64();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  // Uniform integer in [lo, hi] inclusive.
  int64_t UniformRange(int64_t lo, int64_t hi) {
    MRMB_CHECK_LE(lo, hi);
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(Uniform(span));
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next64() >> 11) * 0x1.0p-53;
  }

  // Bernoulli trial with success probability `p` (clamped to [0, 1]).
  bool Bernoulli(double p) { return NextDouble() < p; }

  // Fills `out[0..len)` with pseudo-random bytes: each 64-bit draw in
  // little-endian byte order, and a tail shorter than 8 bytes takes the low
  // bytes of one more draw.
  void Fill(char* out, size_t len) {
    size_t i = 0;
    for (; i + 8 <= len; i += 8) StoreLittleEndian(Next64(), out + i, 8);
    if (i < len) StoreLittleEndian(Next64(), out + i, len - i);
  }

  // Derives an independent child stream; used to give each task its own
  // generator while keeping the whole job reproducible from one seed.
  Rng Fork() { return Rng(Next64()); }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  // Copies the low `n` little-endian bytes of `v` with one memcpy: GCC
  // keeps a per-byte shift loop as eight separate stores.
  static void StoreLittleEndian(uint64_t v, char* out, size_t n) {
    if constexpr (std::endian::native == std::endian::big) {
      v = __builtin_bswap64(v);
    }
    std::memcpy(out, &v, n);
  }

  uint64_t state_[4];
};

}  // namespace mrmb

#endif  // MRMB_COMMON_RNG_H_

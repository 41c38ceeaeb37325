#include "common/rng.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "io/checksum.h"

namespace mrmb {
namespace {

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next64() == b.Next64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ReseedRestartsStream) {
  Rng rng(7);
  const uint64_t first = rng.Next64();
  rng.Next64();
  rng.Reseed(7);
  EXPECT_EQ(rng.Next64(), first);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(99);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.Uniform(bound), bound);
    }
  }
}

TEST(RngTest, UniformBoundOneAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.Uniform(1), 0u);
}

TEST(RngTest, UniformCoversAllResidues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformIsRoughlyBalanced) {
  Rng rng(17);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.Uniform(kBuckets)];
  // Each bucket expects 10000; allow +-5% (far beyond 6-sigma).
  for (int count : counts) {
    EXPECT_GT(count, 9500);
    EXPECT_LT(count, 10500);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(23);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(31);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(37);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(41);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RngTest, FillIsDeterministicAndCoversLengths) {
  for (size_t len : {0u, 1u, 7u, 8u, 9u, 64u, 100u}) {
    Rng a(55);
    Rng b(55);
    std::string x(len, '\0');
    std::string y(len, '\0');
    a.Fill(x.data(), len);
    b.Fill(y.data(), len);
    EXPECT_EQ(x, y) << "len=" << len;
  }
}

// Known answers for Fill: each 64-bit draw lands in little-endian byte
// order, and a tail shorter than 8 bytes takes the low bytes of one more
// draw. These bytes feed every generated record, so they are pinned.
TEST(RngTest, FillMatchesKnownAnswerForShortLengths) {
  // Rng(55).Fill(out, 17), as hex; a shorter fill is its prefix.
  const std::string expected_hex = "2b4fe466b5648962aac0fd4b450a6f662a";
  for (size_t len = 0; len <= 17; ++len) {
    Rng rng(55);
    std::string buf(len, '\0');
    rng.Fill(buf.data(), len);
    std::string hex;
    for (const char c : buf) {
      static const char kDigits[] = "0123456789abcdef";
      hex.push_back(kDigits[static_cast<uint8_t>(c) >> 4]);
      hex.push_back(kDigits[static_cast<uint8_t>(c) & 0xf]);
    }
    EXPECT_EQ(hex, expected_hex.substr(0, 2 * len)) << "len=" << len;
  }
}

TEST(RngTest, FillKnownAnswerTailsConsumeOneDraw) {
  // Lengths 0..17 filled back to back from one stream: every partial tail
  // consumes a whole draw, so the next fill starts on a fresh one.
  Rng rng(56);
  uint32_t crc = kCrc32cInit;
  for (size_t len = 0; len <= 17; ++len) {
    std::string buf(len, '\0');
    rng.Fill(buf.data(), len);
    crc = Crc32c(crc, buf);
  }
  EXPECT_EQ(crc, 0xe676533fu);
}

TEST(RngTest, FillMatchesKnownAnswerFor4096Bytes) {
  Rng rng(61);
  std::string buf(4096, '\0');
  rng.Fill(buf.data(), buf.size());
  EXPECT_EQ(Crc32c(buf), 0xdfbf9ea8u);
}

TEST(RngTest, FillProducesVariedBytes) {
  Rng rng(61);
  std::string buf(4096, '\0');
  rng.Fill(buf.data(), buf.size());
  std::set<char> distinct(buf.begin(), buf.end());
  EXPECT_GT(distinct.size(), 200u);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(71);
  Rng child = parent.Fork();
  // Child stream differs from parent's continued stream.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.Next64() == child.Next64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformZeroBoundDies) {
  Rng rng(1);
  EXPECT_DEATH({ (void)rng.Uniform(0); }, "bound");
}

}  // namespace
}  // namespace mrmb

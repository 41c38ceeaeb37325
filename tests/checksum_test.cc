#include "io/checksum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "common/rng.h"
#include "io/byte_buffer.h"
#include "io/kv_buffer.h"
#include "io/writable.h"

namespace mrmb {
namespace {

std::string WireBytes(const std::string& payload) {
  BufferWriter writer;
  BytesWritable(payload).Serialize(&writer);
  return writer.data();
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 (iSCSI) test vectors for CRC32C.
  EXPECT_EQ(Crc32c(""), 0x00000000u);
  EXPECT_EQ(Crc32c("123456789"), 0xe3069283u);
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8a9136aau);
  EXPECT_EQ(Crc32c(std::string(32, '\xff')), 0x62a8ab43u);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  const std::string data = "hello, checksummed world";
  uint32_t crc = kCrc32cInit;
  for (char c : data) crc = Crc32c(crc, std::string_view(&c, 1));
  EXPECT_EQ(crc, Crc32c(data));
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  std::string data(1024, 'a');
  const uint32_t clean = Crc32c(data);
  for (size_t pos : {size_t{0}, size_t{511}, size_t{1023}}) {
    for (int bit : {0, 3, 7}) {
      std::string flipped = data;
      flipped[pos] ^= static_cast<char>(1 << bit);
      EXPECT_NE(Crc32c(flipped), clean)
          << "undetected flip at byte " << pos << " bit " << bit;
    }
  }
}

// Property tests: every fast kernel must be bit-identical to the reference
// table loop on arbitrary lengths, alignments and chunkings — the slicing
// and SSE4.2 paths process 8 bytes at a time with scalar head/tail loops,
// so short inputs, unaligned starts and non-multiple-of-8 tails are
// exactly where they could diverge. The SSE4.2 path also runs inputs of
// 768 B and more as three lanes over 8 KB blocks (24,576 B per round), then
// 256 B blocks, so the lengths around both thresholds are pinned too.

TEST(Crc32cKernelsTest, FastPathsMatchReferenceOnRandomLengths) {
  Rng rng(0xC12C);
  std::string buffer(73741, '\0');
  rng.Fill(buffer.data(), buffer.size());
  for (size_t len :
       {size_t{0}, size_t{1}, size_t{3}, size_t{7}, size_t{8}, size_t{9},
        size_t{15}, size_t{16}, size_t{63}, size_t{64}, size_t{255},
        size_t{767}, size_t{768}, size_t{769}, size_t{1024}, size_t{4093},
        size_t{24575}, size_t{24576}, size_t{24577}, size_t{73741}}) {
    const std::string_view data(buffer.data(), len);
    // From the initial value and from a running CRC of earlier bytes.
    for (const uint32_t crc : {kCrc32cInit, 0x9e3779b9u}) {
      const uint32_t want = Crc32cReference(crc, data);
      EXPECT_EQ(Crc32cSlicing8(crc, data), want)
          << "len " << len << " crc " << crc;
      EXPECT_EQ(Crc32c(crc, data), want) << "len " << len << " crc " << crc;
      if (Crc32cHardwareAvailable()) {
        EXPECT_EQ(Crc32cHardware(crc, data), want)
            << "len " << len << " crc " << crc;
      }
    }
  }
}

TEST(Crc32cKernelsTest, FastPathsMatchReferenceOnEveryAlignment) {
  Rng rng(0xA119);
  std::string buffer(49163 + 16, '\0');
  rng.Fill(buffer.data(), buffer.size());
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len :
         {size_t{5}, size_t{8}, size_t{21}, size_t{100}, size_t{49163}}) {
      const std::string_view data(buffer.data() + offset, len);
      const uint32_t want = Crc32cReference(kCrc32cInit, data);
      EXPECT_EQ(Crc32cSlicing8(kCrc32cInit, data), want)
          << "offset " << offset << " len " << len;
      if (Crc32cHardwareAvailable()) {
        EXPECT_EQ(Crc32cHardware(kCrc32cInit, data), want)
            << "offset " << offset << " len " << len;
      }
    }
  }
}

TEST(Crc32cKernelsTest, RandomChunkingMatchesOneShot) {
  Rng rng(0xC407);
  std::string data(100 * 1024, '\0');
  rng.Fill(data.data(), data.size());
  const uint32_t want = Crc32cReference(data);
  for (int trial = 0; trial < 16; ++trial) {
    // Alternate short pieces with pieces of up to 30 KB, which cross both
    // of the hardware kernel's block thresholds.
    const size_t max_chunk = trial % 2 == 0 ? 97 : 30 * 1024;
    uint32_t sliced = kCrc32cInit;
    uint32_t dispatched = kCrc32cInit;
    uint32_t hw = kCrc32cInit;
    size_t at = 0;
    while (at < data.size()) {
      const size_t chunk =
          std::min(data.size() - at, 1 + rng.Next64() % max_chunk);
      const std::string_view piece(data.data() + at, chunk);
      sliced = Crc32cSlicing8(sliced, piece);
      dispatched = Crc32c(dispatched, piece);
      if (Crc32cHardwareAvailable()) hw = Crc32cHardware(hw, piece);
      at += chunk;
    }
    EXPECT_EQ(sliced, want);
    EXPECT_EQ(dispatched, want);
    if (Crc32cHardwareAvailable()) {
      EXPECT_EQ(hw, want);
    }
  }
}

TEST(Crc32cKernelsTest, ImplNameIsOneOfTheKnownKernels) {
  const std::string name = Crc32cImplName();
  EXPECT_TRUE(name == "sse4.2" || name == "slicing-by-8") << name;
  if (!Crc32cHardwareAvailable()) {
    EXPECT_EQ(name, "slicing-by-8");
  }
}

SpillSegment MakeSegment() {
  KvBuffer buffer(DataType::kBytesWritable, 2, 1 << 20);
  EXPECT_TRUE(buffer.Append(0, WireBytes("alpha"), WireBytes("1")));
  EXPECT_TRUE(buffer.Append(1, WireBytes("beta"), WireBytes("2")));
  EXPECT_TRUE(buffer.Append(0, WireBytes("gamma"), WireBytes("3")));
  buffer.Sort();
  return buffer.ToSpill();
}

TEST(SealSegmentTest, ToSpillSealsAutomatically) {
  const SpillSegment segment = MakeSegment();
  EXPECT_TRUE(segment.sealed);
  EXPECT_TRUE(VerifySegment(segment).ok());
  for (int p = 0; p < 2; ++p) {
    EXPECT_TRUE(VerifySegmentPartition(segment, p).ok());
  }
}

TEST(SealSegmentTest, PartitionCrcMatchesRangeBytes) {
  const SpillSegment segment = MakeSegment();
  for (int p = 0; p < 2; ++p) {
    EXPECT_EQ(segment.partitions[static_cast<size_t>(p)].crc,
              Crc32c(segment.PartitionData(p)));
  }
}

TEST(VerifySegmentTest, UnsealedSegmentIsFailedPrecondition) {
  SpillSegment segment;
  segment.partitions.resize(1);
  EXPECT_EQ(VerifySegmentPartition(segment, 0).code(),
            StatusCode::kFailedPrecondition);
}

TEST(VerifySegmentTest, BitFlipIsDataLossInThatPartitionOnly) {
  SpillSegment segment = MakeSegment();
  // Flip one bit inside partition 1's range.
  const auto& range = segment.partitions[1];
  ASSERT_GT(range.length, 0);
  segment.data[static_cast<size_t>(range.offset)] ^= 0x10;
  EXPECT_TRUE(VerifySegmentPartition(segment, 0).ok());
  const Status bad = VerifySegmentPartition(segment, 1);
  EXPECT_EQ(bad.code(), StatusCode::kDataLoss);
  EXPECT_NE(bad.message().find("partition 1"), std::string::npos);
  EXPECT_EQ(VerifySegment(segment).code(), StatusCode::kDataLoss);
}

TEST(VerifySegmentTest, RoundTripAfterCorruptionRepair) {
  SpillSegment segment = MakeSegment();
  const auto& range = segment.partitions[0];
  const size_t victim = static_cast<size_t>(range.offset);
  segment.data[victim] ^= 0x01;
  EXPECT_FALSE(VerifySegment(segment).ok());
  segment.data[victim] ^= 0x01;  // repair
  EXPECT_TRUE(VerifySegment(segment).ok());
}

TEST(VerifySegmentTest, EmptyPartitionVerifies) {
  KvBuffer buffer(DataType::kBytesWritable, 3, 1 << 20);
  EXPECT_TRUE(buffer.Append(0, WireBytes("k"), WireBytes("v")));
  buffer.Sort();
  const SpillSegment segment = buffer.ToSpill();
  EXPECT_EQ(segment.partitions[1].records, 0);
  EXPECT_TRUE(VerifySegmentPartition(segment, 1).ok());
  EXPECT_TRUE(VerifySegmentPartition(segment, 2).ok());
}

TEST(FindCrc32cSingleBitFlipTest, LocatesFlipsAcrossMessageLengths) {
  Rng rng(0xB17F11B);
  for (const size_t len : {1u, 7u, 64u, 1000u, 65536u}) {
    std::string data(len, '\0');
    rng.Fill(data.data(), data.size());
    const uint32_t good = Crc32c(data);
    const size_t byte = static_cast<size_t>(rng.Uniform(len));
    const int bit = static_cast<int>(rng.Uniform(8));
    data[byte] = static_cast<char>(data[byte] ^ (1u << bit));
    size_t found_byte = 0;
    int found_bit = 0;
    ASSERT_TRUE(FindCrc32cSingleBitFlip(good ^ Crc32c(data), len, &found_byte,
                                        &found_bit))
        << "len=" << len;
    EXPECT_EQ(found_byte, byte);
    EXPECT_EQ(found_bit, bit);
  }
}

TEST(FindCrc32cSingleBitFlipTest, ZeroSyndromeAndMultiBitDamageFail) {
  std::string data(256, 'q');
  const uint32_t good = Crc32c(data);
  size_t byte = 0;
  int bit = 0;
  // A zero syndrome means the data is undamaged: no bit to find.
  EXPECT_FALSE(FindCrc32cSingleBitFlip(0, data.size(), &byte, &bit));
  // Two distinct flips never alias a single-bit syndrome at these lengths.
  std::string bad = data;
  bad[10] = static_cast<char>(bad[10] ^ 0x01);
  bad[200] = static_cast<char>(bad[200] ^ 0x80);
  EXPECT_FALSE(
      FindCrc32cSingleBitFlip(good ^ Crc32c(bad), data.size(), &byte, &bit));
}

}  // namespace
}  // namespace mrmb

#include "io/block_codec.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "io/byte_buffer.h"
#include "io/record_gen.h"

namespace mrmb {
namespace {

// Framed records the way the spill path lays them out: varint key length,
// varint value length, key wire bytes, value wire bytes.
std::string FramedRecords(DataType type, int64_t records, int unique_keys,
                          int key_size = 24, int value_size = 40) {
  RecordGenerator::Options options;
  options.type = type;
  options.key_size = key_size;
  options.value_size = value_size;
  options.num_unique_keys = unique_keys;
  RecordGenerator generator(options);
  std::string out;
  BufferWriter writer(&out);
  std::string key;
  std::string value;
  for (int64_t i = 0; i < records; ++i) {
    generator.SerializedKey(generator.KeyIdFor(i), &key);
    generator.SerializedValue(i, &value);
    writer.AppendVarint64(static_cast<int64_t>(key.size()));
    writer.AppendVarint64(static_cast<int64_t>(value.size()));
    writer.AppendRaw(key);
    writer.AppendRaw(value);
  }
  return out;
}

TEST(MapOutputCodecTest, NamesRoundTrip) {
  for (MapOutputCodec codec : {MapOutputCodec::kNone, MapOutputCodec::kLz4,
                               MapOutputCodec::kDeflate}) {
    auto parsed = MapOutputCodecByName(MapOutputCodecName(codec));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, codec);
  }
  EXPECT_EQ(*MapOutputCodecByName("off"), MapOutputCodec::kNone);
  EXPECT_EQ(*MapOutputCodecByName("zlib"), MapOutputCodec::kDeflate);
  EXPECT_EQ(*MapOutputCodecByName("LZ4"), MapOutputCodec::kLz4);
  EXPECT_EQ(MapOutputCodecByName("snappy").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Lz4BlockTest, RoundTripsFramedRecordsForEveryDataType) {
  for (DataType type : {DataType::kBytesWritable, DataType::kText,
                        DataType::kIntWritable, DataType::kLongWritable}) {
    const std::string raw = FramedRecords(type, 500, 8);
    std::string compressed;
    Lz4CompressBlock(raw, &compressed);
    std::string decoded;
    ASSERT_TRUE(Lz4DecompressBlock(compressed, raw.size(), &decoded).ok())
        << DataTypeName(type);
    EXPECT_EQ(decoded, raw) << DataTypeName(type);
  }
}

TEST(Lz4BlockTest, RepeatedKeysCompress) {
  // Unique keys == a small reducer count (the paper's shape): sorted runs
  // repeat serialized keys, which an LZ77 codec must exploit. Keys dominate
  // the record here; values are incompressible random payload.
  const std::string raw =
      FramedRecords(DataType::kText, 2000, 4, /*key_size=*/80,
                    /*value_size=*/16);
  std::string compressed;
  Lz4CompressBlock(raw, &compressed);
  EXPECT_LT(compressed.size(), raw.size() / 2);
  std::string decoded;
  ASSERT_TRUE(Lz4DecompressBlock(compressed, raw.size(), &decoded).ok());
  EXPECT_EQ(decoded, raw);
}

TEST(Lz4BlockTest, RoundTripsEdgeSizes) {
  Rng rng(0x7214);
  for (size_t len : {size_t{0}, size_t{1}, size_t{4}, size_t{11}, size_t{12},
                     size_t{13}, size_t{17}, size_t{64}, size_t{4096}}) {
    std::string raw(len, '\0');
    rng.Fill(raw.data(), raw.size());
    std::string compressed;
    Lz4CompressBlock(raw, &compressed);
    std::string decoded;
    ASSERT_TRUE(Lz4DecompressBlock(compressed, raw.size(), &decoded).ok())
        << "len " << len;
    EXPECT_EQ(decoded, raw) << "len " << len;
  }
  // A repeat that runs to the end of the block: the match must stop short
  // of the final 5 bytes, which the last sequence carries as literals.
  for (size_t len : {size_t{13}, size_t{14}, size_t{17}, size_t{20},
                     size_t{64}, size_t{4096}}) {
    std::string raw;
    for (size_t i = 0; i < len; ++i) raw.push_back("abc"[i % 3]);
    std::string compressed;
    Lz4CompressBlock(raw, &compressed);
    ASSERT_GE(compressed.size(), 5u) << "len " << len;
    EXPECT_EQ(compressed.substr(compressed.size() - 5), raw.substr(len - 5))
        << "len " << len;
    std::string decoded;
    ASSERT_TRUE(Lz4DecompressBlock(compressed, raw.size(), &decoded).ok())
        << "len " << len;
    EXPECT_EQ(decoded, raw) << "len " << len;
  }
}

TEST(Lz4BlockTest, RoundTripsLongRuns) {
  // Long identical runs exercise the 255-extension length encoding on both
  // the literal and the match side.
  std::string raw(100000, 'x');
  raw += "tail";
  std::string compressed;
  Lz4CompressBlock(raw, &compressed);
  EXPECT_LT(compressed.size(), raw.size() / 100);
  std::string decoded;
  ASSERT_TRUE(Lz4DecompressBlock(compressed, raw.size(), &decoded).ok());
  EXPECT_EQ(decoded, raw);

  // The edge of the 16-bit offset window: a random block repeated exactly
  // 65535 bytes later is one match; 65536 bytes later it is out of reach
  // and must stay literals (an offset of 65536 does not fit the format).
  Rng rng(0x0FF5E7);
  constexpr size_t kUnique = 4096;
  std::string unique(kUnique, '\0');
  rng.Fill(unique.data(), unique.size());
  for (size_t distance : {size_t{65535}, size_t{65536}}) {
    std::string far = unique;
    far.append(distance - kUnique, 'z');
    far += unique;
    far += "tail!";
    Lz4CompressBlock(far, &compressed);
    // The filler itself costs ~240 bytes of run-length extension.
    if (distance <= 65535) {
      EXPECT_LT(compressed.size(), kUnique + 512) << "distance " << distance;
    } else {
      EXPECT_GT(compressed.size(), 2 * kUnique) << "distance " << distance;
    }
    ASSERT_TRUE(Lz4DecompressBlock(compressed, far.size(), &decoded).ok())
        << "distance " << distance;
    EXPECT_EQ(decoded, far) << "distance " << distance;
  }
}

TEST(Lz4BlockTest, RandomBlocksRoundTripAtRandomLengths) {
  Rng rng(0x9E11);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t len = rng.Next64() % 3000;
    std::string raw(len, '\0');
    rng.Fill(raw.data(), raw.size());
    // Splice in some repetition so matches actually fire.
    if (len > 64) {
      const size_t span = len / 4;
      raw.replace(len / 2, span, raw.substr(0, span));
    }
    std::string compressed;
    Lz4CompressBlock(raw, &compressed);
    std::string decoded;
    ASSERT_TRUE(Lz4DecompressBlock(compressed, raw.size(), &decoded).ok());
    EXPECT_EQ(decoded, raw);
  }
  // A long incompressible stretch grows the probe stride to dozens of
  // bytes; a repeat of its start must still be found, extended back to
  // where it begins, and cost a few bytes rather than its length.
  constexpr size_t kStretch = 48 << 10;
  std::string raw(kStretch, '\0');
  rng.Fill(raw.data(), raw.size());
  raw += raw.substr(0, 8 << 10);
  raw += "tail!";
  std::string compressed;
  Lz4CompressBlock(raw, &compressed);
  EXPECT_LT(compressed.size(), kStretch + 512);
  std::string decoded;
  ASSERT_TRUE(Lz4DecompressBlock(compressed, raw.size(), &decoded).ok());
  EXPECT_EQ(decoded, raw);
}

TEST(BlockCodecFrameTest, RoundTripsForBothCodecs) {
  const std::string raw = FramedRecords(DataType::kText, 300, 4);
  for (MapOutputCodec codec :
       {MapOutputCodec::kLz4, MapOutputCodec::kDeflate}) {
    std::string frame;
    ASSERT_TRUE(BlockCompress(codec, raw, &frame).ok());
    EXPECT_LT(frame.size(), raw.size());
    auto raw_size = CodecFrameRawSize(frame);
    ASSERT_TRUE(raw_size.ok());
    EXPECT_EQ(static_cast<size_t>(*raw_size), raw.size());
    std::string decoded;
    ASSERT_TRUE(BlockDecompress(frame, &decoded).ok());
    EXPECT_EQ(decoded, raw);
  }
}

TEST(BlockCodecFrameTest, IncompressibleInputFallsBackToStoredFrame) {
  Rng rng(0x5700);
  std::string raw(2048, '\0');
  rng.Fill(raw.data(), raw.size());
  std::string frame;
  ASSERT_TRUE(BlockCompress(MapOutputCodec::kLz4, raw, &frame).ok());
  // Stored fallback: header + verbatim payload, never an expansion beyond
  // the fixed header.
  EXPECT_EQ(frame.size(), raw.size() + kCodecFrameHeaderSize);
  std::string decoded;
  ASSERT_TRUE(BlockDecompress(frame, &decoded).ok());
  EXPECT_EQ(decoded, raw);
}

TEST(BlockCodecFrameTest, EmptyInputRoundTrips) {
  std::string frame;
  ASSERT_TRUE(BlockCompress(MapOutputCodec::kLz4, "", &frame).ok());
  std::string decoded = "stale";
  ASSERT_TRUE(BlockDecompress(frame, &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(BlockCodecFrameTest, CompressingWithNoneIsInvalid) {
  std::string frame;
  EXPECT_EQ(BlockCompress(MapOutputCodec::kNone, "abc", &frame).code(),
            StatusCode::kInvalidArgument);
}

TEST(BlockCodecFrameTest, CorruptPayloadFailsTheFrameChecksum) {
  const std::string raw = FramedRecords(DataType::kBytesWritable, 200, 4);
  std::string frame;
  ASSERT_TRUE(BlockCompress(MapOutputCodec::kLz4, raw, &frame).ok());
  std::string corrupt = frame;
  corrupt[corrupt.size() / 2] ^= 0x20;
  std::string decoded;
  EXPECT_EQ(BlockDecompress(corrupt, &decoded).code(), StatusCode::kDataLoss);
}

TEST(BlockCodecFrameTest, CorruptRawLengthFailsBeforeAllocation) {
  const std::string raw = FramedRecords(DataType::kBytesWritable, 200, 4);
  std::string frame;
  ASSERT_TRUE(BlockCompress(MapOutputCodec::kLz4, raw, &frame).ok());
  // Bytes 5..12 are the big-endian raw length. Blowing up the high byte
  // trips the plausibility bound before any allocation...
  std::string huge = frame;
  huge[5] = '\x7f';
  std::string decoded;
  EXPECT_EQ(BlockDecompress(huge, &decoded).code(),
            StatusCode::kInvalidArgument);
  // ...and a plausible-but-wrong length is caught by the header CRC, which
  // covers the length bytes.
  std::string tweaked = frame;
  tweaked[12] ^= 0x01;
  EXPECT_EQ(BlockDecompress(tweaked, &decoded).code(), StatusCode::kDataLoss);
}

TEST(MeasureCodecRatioTest, TracksCompressibility) {
  EXPECT_DOUBLE_EQ(MeasureCodecRatio(MapOutputCodec::kNone, "whatever"), 1.0);
  EXPECT_DOUBLE_EQ(MeasureCodecRatio(MapOutputCodec::kLz4, ""), 1.0);
  const std::string repetitive =
      FramedRecords(DataType::kText, 1000, 2, /*key_size=*/80,
                    /*value_size=*/16);
  EXPECT_LT(MeasureCodecRatio(MapOutputCodec::kLz4, repetitive), 0.6);
  EXPECT_LT(MeasureCodecRatio(MapOutputCodec::kDeflate, repetitive), 0.6);
  Rng rng(0xF00);
  std::string random(4096, '\0');
  rng.Fill(random.data(), random.size());
  // Random bytes: lz4 lands on the stored fallback, ratio ~1.
  EXPECT_GE(MeasureCodecRatio(MapOutputCodec::kLz4, random), 1.0);
}

// ---- Single-bit frame repair (the spill engine's scrub primitive) --------

std::string CompressibleFrame() {
  std::string frame;
  std::string raw;
  for (int i = 0; i < 500; ++i) {
    raw += "block payload chunk " + std::to_string(i % 13) + "; ";
  }
  EXPECT_TRUE(BlockCompress(MapOutputCodec::kDeflate, raw, &frame).ok());
  return frame;
}

TEST(RepairCodecFrameTest, HealsOneBitInEveryFrameRegion) {
  const std::string pristine = CompressibleFrame();
  // One flip per frame region: magic, method/length header, payload body,
  // and the CRC field itself (byte offsets per the header layout comment).
  const size_t probes[] = {0, 5, kCodecFrameHeaderSize - 2,
                           kCodecFrameHeaderSize + 3, pristine.size() - 1};
  for (const size_t byte : probes) {
    for (const int bit : {0, 7}) {
      std::string frame = pristine;
      frame[byte] = static_cast<char>(frame[byte] ^ (1u << bit));
      const Status repaired = RepairCodecFrameSingleBitFlip(&frame);
      ASSERT_TRUE(repaired.ok())
          << "byte=" << byte << " bit=" << bit << ": " << repaired.ToString();
      EXPECT_EQ(frame, pristine) << "byte=" << byte << " bit=" << bit;
      std::string raw;
      EXPECT_TRUE(BlockDecompress(frame, &raw).ok());
    }
  }
}

TEST(RepairCodecFrameTest, TwoBitDamageIsDataLoss) {
  std::string frame = CompressibleFrame();
  frame[kCodecFrameHeaderSize + 1] =
      static_cast<char>(frame[kCodecFrameHeaderSize + 1] ^ 0x04);
  frame[frame.size() - 2] = static_cast<char>(frame[frame.size() - 2] ^ 0x40);
  const Status repair = RepairCodecFrameSingleBitFlip(&frame);
  ASSERT_FALSE(repair.ok());
  EXPECT_EQ(repair.code(), StatusCode::kDataLoss);
}

TEST(RepairCodecFrameTest, UndamagedFrameIsUntouched) {
  std::string frame = CompressibleFrame();
  const std::string pristine = frame;
  EXPECT_TRUE(RepairCodecFrameSingleBitFlip(&frame).ok());
  EXPECT_EQ(frame, pristine);
}

TEST(BlockStoreTest, StoredFramesRoundTripAndRepair) {
  Rng rng(0xB10C);
  std::string raw(10000, '\0');
  rng.Fill(raw.data(), raw.size());
  std::string frame;
  BlockStore(raw, &frame);
  EXPECT_EQ(frame.size(), raw.size() + kCodecFrameHeaderSize);
  std::string round;
  ASSERT_TRUE(BlockDecompress(frame, &round).ok());
  EXPECT_EQ(round, raw);
  // Stored frames go through the same repair machinery.
  const std::string pristine = frame;
  frame[kCodecFrameHeaderSize + 777] =
      static_cast<char>(frame[kCodecFrameHeaderSize + 777] ^ 0x20);
  ASSERT_TRUE(RepairCodecFrameSingleBitFlip(&frame).ok());
  EXPECT_EQ(frame, pristine);
}

}  // namespace
}  // namespace mrmb

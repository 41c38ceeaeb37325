#include "io/record_gen.h"

#include <gtest/gtest.h>

#include "io/byte_buffer.h"
#include "io/checksum.h"

namespace mrmb {
namespace {

RecordGenerator::Options BytesOptions(size_t key = 64, size_t value = 128,
                                      int unique = 4) {
  RecordGenerator::Options options;
  options.type = DataType::kBytesWritable;
  options.key_size = key;
  options.value_size = value;
  options.num_unique_keys = unique;
  options.seed = 7;
  return options;
}

TEST(RecordGenTest, KeyIdCyclesOverUniqueKeys) {
  RecordGenerator generator(BytesOptions(64, 128, 4));
  EXPECT_EQ(generator.KeyIdFor(0), 0);
  EXPECT_EQ(generator.KeyIdFor(3), 3);
  EXPECT_EQ(generator.KeyIdFor(4), 0);
  EXPECT_EQ(generator.KeyIdFor(11), 3);
}

TEST(RecordGenTest, SerializedSizesMatchOptions) {
  RecordGenerator generator(BytesOptions(64, 128));
  std::string key;
  std::string value;
  generator.SerializedKey(0, &key);
  generator.SerializedValue(0, &value);
  EXPECT_EQ(key.size(), 64u + 4u);  // BytesWritable: 4-byte length prefix
  EXPECT_EQ(value.size(), 128u + 4u);
  EXPECT_EQ(generator.serialized_key_size(), key.size());
  EXPECT_EQ(generator.serialized_value_size(), value.size());
}

TEST(RecordGenTest, SameKeyIdGivesIdenticalBytes) {
  RecordGenerator generator(BytesOptions());
  std::string a;
  std::string b;
  generator.SerializedKey(2, &a);
  generator.SerializedKey(2, &b);
  EXPECT_EQ(a, b);
}

TEST(RecordGenTest, DistinctKeyIdsGiveDistinctBytes) {
  RecordGenerator generator(BytesOptions());
  std::string a;
  std::string b;
  generator.SerializedKey(0, &a);
  generator.SerializedKey(1, &b);
  EXPECT_NE(a, b);
}

TEST(RecordGenTest, ValuesVaryByIndex) {
  RecordGenerator generator(BytesOptions());
  std::string a;
  std::string b;
  generator.SerializedValue(0, &a);
  generator.SerializedValue(1, &b);
  EXPECT_NE(a, b);
  // Same index regenerates identical bytes (determinism).
  std::string a2;
  generator.SerializedValue(0, &a2);
  EXPECT_EQ(a, a2);
}

TEST(RecordGenTest, SeedsChangePayloads) {
  RecordGenerator::Options options = BytesOptions();
  RecordGenerator g1(options);
  options.seed = 8;
  RecordGenerator g2(options);
  std::string a;
  std::string b;
  g1.SerializedValue(5, &a);
  g2.SerializedValue(5, &b);
  EXPECT_NE(a, b);
}

TEST(RecordGenTest, TextPayloadsArePrintable) {
  RecordGenerator::Options options = BytesOptions(32, 64, 3);
  options.type = DataType::kText;
  RecordGenerator generator(options);
  for (int64_t i = 0; i < 3; ++i) {
    std::string key;
    generator.SerializedKey(i, &key);
    BufferReader reader(key);
    Text text;
    ASSERT_TRUE(text.Deserialize(&reader).ok());
    EXPECT_EQ(text.value().size(), 32u);
    for (char c : text.value()) {
      EXPECT_GE(c, 'a');
      EXPECT_LE(c, 'z');
    }
  }
  std::string value;
  generator.SerializedValue(9, &value);
  BufferReader reader(value);
  Text text;
  ASSERT_TRUE(text.Deserialize(&reader).ok());
  for (char c : text.value()) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

TEST(RecordGenTest, TextFramingIsVarint) {
  RecordGenerator::Options options = BytesOptions(64, 128);
  options.type = DataType::kText;
  RecordGenerator generator(options);
  // Text of 64 bytes: 1-byte vint + 64.
  EXPECT_EQ(generator.serialized_key_size(), 65u);
  EXPECT_EQ(generator.serialized_value_size(), 130u);  // 2-byte vint for 128
}

TEST(RecordGenTest, FramedRecordSize) {
  RecordGenerator generator(BytesOptions(64, 128));
  // key 68 + value 132, frame vints: 1 + 2 (132 > 127).
  EXPECT_EQ(generator.framed_record_size(), 68u + 132u + 1u + 2u);
}

TEST(RecordGenTest, RecordsForShuffleBytesRoundsUp) {
  RecordGenerator generator(BytesOptions(64, 128));
  const auto frame = static_cast<int64_t>(generator.framed_record_size());
  EXPECT_EQ(generator.RecordsForShuffleBytes(frame), 1);
  EXPECT_EQ(generator.RecordsForShuffleBytes(frame + 1), 2);
  EXPECT_EQ(generator.RecordsForShuffleBytes(10 * frame), 10);
  EXPECT_EQ(generator.RecordsForShuffleBytes(10 * frame - 1), 10);
}

TEST(RecordGenTest, KeysSortDistinctly) {
  // The big-endian id prefix makes key order match id order.
  RecordGenerator generator(BytesOptions(64, 64, 8));
  std::string prev;
  for (int64_t id = 0; id < 8; ++id) {
    std::string key;
    generator.SerializedKey(id, &key);
    if (id > 0) {
      EXPECT_LT(prev, key);
    }
    prev = key;
  }
}

TEST(RecordGenTest, TinyKeyRejected) {
  RecordGenerator::Options options = BytesOptions(4, 64);
  EXPECT_DEATH({ RecordGenerator generator(options); }, "8-byte key id");
}

TEST(RecordGenTest, UnsupportedTypeRejected) {
  RecordGenerator::Options options = BytesOptions();
  options.type = DataType::kNullWritable;
  EXPECT_DEATH({ RecordGenerator generator(options); }, "supports");
}

TEST(RecordGenTest, LongWritableRecords) {
  RecordGenerator::Options options = BytesOptions();
  options.type = DataType::kLongWritable;
  RecordGenerator generator(options);
  EXPECT_EQ(generator.serialized_key_size(), 8u);
  EXPECT_EQ(generator.serialized_value_size(), 8u);
  // Record frame: two 1-byte vints + 8 + 8.
  EXPECT_EQ(generator.framed_record_size(), 18u);
  std::string key;
  generator.SerializedKey(3, &key);
  BufferReader reader(key);
  LongWritable decoded;
  ASSERT_TRUE(decoded.Deserialize(&reader).ok());
  EXPECT_EQ(decoded.value(), 3);
  std::string value;
  generator.SerializedValue(12345, &value);
  BufferReader value_reader(value);
  ASSERT_TRUE(decoded.Deserialize(&value_reader).ok());
  EXPECT_EQ(decoded.value(), 12345);
}

TEST(RecordGenTest, IntWritableRecords) {
  RecordGenerator::Options options = BytesOptions();
  options.type = DataType::kIntWritable;
  RecordGenerator generator(options);
  EXPECT_EQ(generator.serialized_key_size(), 4u);
  EXPECT_EQ(generator.serialized_value_size(), 4u);
  std::string key_a;
  std::string key_b;
  generator.SerializedKey(1, &key_a);
  generator.SerializedKey(1, &key_b);
  EXPECT_EQ(key_a, key_b);
  generator.SerializedKey(2, &key_b);
  EXPECT_NE(key_a, key_b);
}

// CRC32C over the serialized keys and values of 25 records for every
// (key_size, value_size) pair below: 500 keys and 500 values per type.
// Sizes straddle the 8-byte key id and the generator's 8-byte draws; the
// record indices pass 2^31, where IntWritable values wrap.
uint32_t GeneratorFingerprint(DataType type) {
  uint32_t crc = kCrc32cInit;
  std::string key;
  std::string value;
  for (const size_t key_size : {8u, 9u, 50u, 512u}) {
    for (const size_t value_size : {0u, 1u, 7u, 50u, 512u}) {
      RecordGenerator::Options options;
      options.type = type;
      options.key_size = key_size;
      options.value_size = value_size;
      options.num_unique_keys = 65536;
      options.seed = 0x5eed + key_size * 1000 + value_size;
      const RecordGenerator generator(options);
      for (int64_t r = 0; r < 25; ++r) {
        const int64_t index =
            r * 123456789 + static_cast<int64_t>(key_size + value_size);
        generator.SerializedKey(generator.KeyIdFor(index), &key);
        generator.SerializedValue(index, &value);
        crc = Crc32c(crc, key);
        crc = Crc32c(crc, value);
      }
    }
  }
  return crc;
}

// Known-answer goldens for every generated byte. perfbench's oracle and
// the simulator's codec-ratio sample are derived from RecordGenerator, so
// only a constant can catch a change in what it emits.
TEST(RecordGenTest, BytesWritableRecordsMatchGolden) {
  EXPECT_EQ(GeneratorFingerprint(DataType::kBytesWritable), 0xfc32d113u);
}

TEST(RecordGenTest, TextRecordsMatchGolden) {
  EXPECT_EQ(GeneratorFingerprint(DataType::kText), 0xda2a83a9u);
}

TEST(RecordGenTest, IntWritableRecordsMatchGolden) {
  EXPECT_EQ(GeneratorFingerprint(DataType::kIntWritable), 0x9f8f43c9u);
}

TEST(RecordGenTest, LongWritableRecordsMatchGolden) {
  EXPECT_EQ(GeneratorFingerprint(DataType::kLongWritable), 0x1cab6cdbu);
}

}  // namespace
}  // namespace mrmb

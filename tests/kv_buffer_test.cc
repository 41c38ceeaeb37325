#include "io/kv_buffer.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "io/byte_buffer.h"
#include "io/merge.h"

namespace mrmb {
namespace {

std::string WireBytes(const std::string& payload) {
  BufferWriter writer;
  BytesWritable(payload).Serialize(&writer);
  return writer.data();
}

// One partition of a sorted buffer, as (key, value) pairs in stream order.
std::vector<std::pair<std::string, std::string>> Partition(
    const KvBuffer& buffer, int partition) {
  std::vector<std::pair<std::string, std::string>> records;
  for (KvBuffer::SortedStream stream = buffer.SortedPartition(partition);
       stream.Valid(); stream.Next()) {
    records.emplace_back(stream.key(), stream.value());
  }
  return records;
}

std::vector<std::string> Keys(const KvBuffer& buffer, int partition) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : Partition(buffer, partition)) {
    keys.push_back(key);
  }
  return keys;
}

TEST(KvBufferTest, AppendAndReadBack) {
  KvBuffer buffer(DataType::kBytesWritable, 2, 1 << 20);
  ASSERT_TRUE(buffer.Append(0, WireBytes("k1"), WireBytes("v1")));
  ASSERT_TRUE(buffer.Append(1, WireBytes("k2"), WireBytes("v2")));
  EXPECT_EQ(buffer.records(), 2);
  buffer.Sort();
  using Records = std::vector<std::pair<std::string, std::string>>;
  EXPECT_EQ(Partition(buffer, 0),
            (Records{{WireBytes("k1"), WireBytes("v1")}}));
  EXPECT_EQ(Partition(buffer, 1),
            (Records{{WireBytes("k2"), WireBytes("v2")}}));
}

TEST(KvBufferTest, CapacityBoundsAppends) {
  // Records of ~14 bytes (2 frame + 6 key + 6 value); capacity 40 fits 2.
  KvBuffer buffer(DataType::kBytesWritable, 1, 40);
  EXPECT_TRUE(buffer.Append(0, WireBytes("aa"), WireBytes("bb")));
  EXPECT_TRUE(buffer.Append(0, WireBytes("cc"), WireBytes("dd")));
  EXPECT_FALSE(buffer.Append(0, WireBytes("ee"), WireBytes("ff")));
  EXPECT_EQ(buffer.records(), 2);
  buffer.Clear();
  EXPECT_EQ(buffer.records(), 0);
  EXPECT_EQ(buffer.bytes_used(), 0u);
  EXPECT_TRUE(buffer.Append(0, WireBytes("ee"), WireBytes("ff")));
}

TEST(KvBufferTest, OversizedRecordIsRejectedNotFatal) {
  // A record that can never fit even an empty buffer is rejected (the
  // runner surfaces ResourceExhausted); Fits() distinguishes it from an
  // ordinary buffer-full condition that a spill would cure.
  KvBuffer buffer(DataType::kBytesWritable, 1, 16);
  const std::string huge = WireBytes(std::string(100, 'x'));
  EXPECT_FALSE(buffer.Fits(huge, WireBytes("v")));
  EXPECT_FALSE(buffer.Append(0, huge, WireBytes("v")));
  EXPECT_EQ(buffer.records(), 0);
  // The buffer stays usable for records that do fit.
  EXPECT_TRUE(buffer.Fits(WireBytes("k"), WireBytes("v")));
  EXPECT_TRUE(buffer.Append(0, WireBytes("k"), WireBytes("v")));
}

TEST(KvBufferTest, SortOrdersByPartitionThenKey) {
  KvBuffer buffer(DataType::kBytesWritable, 2, 1 << 20);
  ASSERT_TRUE(buffer.Append(1, WireBytes("b"), WireBytes("1")));
  ASSERT_TRUE(buffer.Append(0, WireBytes("z"), WireBytes("2")));
  ASSERT_TRUE(buffer.Append(1, WireBytes("a"), WireBytes("3")));
  ASSERT_TRUE(buffer.Append(0, WireBytes("a"), WireBytes("4")));
  buffer.Sort();
  EXPECT_EQ(Keys(buffer, 0),
            (std::vector<std::string>{WireBytes("a"), WireBytes("z")}));
  EXPECT_EQ(Keys(buffer, 1),
            (std::vector<std::string>{WireBytes("a"), WireBytes("b")}));
}

TEST(KvBufferTest, SortIsStableForEqualKeys) {
  KvBuffer buffer(DataType::kBytesWritable, 1, 1 << 20);
  // Build values with += rather than `"v" + std::to_string(i)`: GCC 12's
  // -Werror=restrict false-positives on operator+(const char*, string&&)
  // (GCC bug 105651) when it gets inlined here.
  for (int i = 0; i < 5; ++i) {
    std::string value = "v";
    value += std::to_string(i);
    ASSERT_TRUE(buffer.Append(0, WireBytes("same"), WireBytes(value)));
  }
  buffer.Sort();
  const auto records = Partition(buffer, 0);
  ASSERT_EQ(records.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    std::string value = "v";
    value += std::to_string(i);
    EXPECT_EQ(records[static_cast<size_t>(i)].second, WireBytes(value));
  }
}

TEST(KvBufferTest, ToSpillPartitionRanges) {
  KvBuffer buffer(DataType::kBytesWritable, 3, 1 << 20);
  ASSERT_TRUE(buffer.Append(2, WireBytes("x"), WireBytes("1")));
  ASSERT_TRUE(buffer.Append(0, WireBytes("y"), WireBytes("2")));
  ASSERT_TRUE(buffer.Append(2, WireBytes("w"), WireBytes("3")));
  buffer.Sort();
  const SpillSegment spill = buffer.ToSpill();
  ASSERT_EQ(spill.partitions.size(), 3u);
  EXPECT_EQ(spill.partitions[0].records, 1);
  EXPECT_EQ(spill.partitions[1].records, 0);
  EXPECT_EQ(spill.partitions[1].length, 0);
  EXPECT_EQ(spill.partitions[2].records, 2);
  EXPECT_EQ(spill.total_records(), 3);
  EXPECT_EQ(spill.total_bytes(), static_cast<int64_t>(spill.data.size()));

  // Partition 2's data decodes to its two records in key order.
  SegmentReader reader(spill.PartitionData(2));
  ASSERT_TRUE(reader.Valid());
  EXPECT_EQ(reader.key(), WireBytes("w"));
  reader.Next();
  ASSERT_TRUE(reader.Valid());
  EXPECT_EQ(reader.key(), WireBytes("x"));
  reader.Next();
  EXPECT_FALSE(reader.Valid());
}

TEST(KvBufferTest, ToSpillWithoutSortDies) {
  KvBuffer buffer(DataType::kBytesWritable, 1, 1 << 20);
  ASSERT_TRUE(buffer.Append(0, WireBytes("k"), WireBytes("v")));
  EXPECT_DEATH({ buffer.ToSpill(); }, "Sort");
}

TEST(KvBufferTest, EmptyBufferSpillsEmptySegment) {
  KvBuffer buffer(DataType::kBytesWritable, 2, 1 << 20);
  buffer.Sort();
  const SpillSegment spill = buffer.ToSpill();
  EXPECT_EQ(spill.total_records(), 0);
  EXPECT_EQ(spill.total_bytes(), 0);
  EXPECT_TRUE(spill.PartitionData(0).empty());
  EXPECT_TRUE(spill.PartitionData(1).empty());
}

TEST(KvBufferTest, BytesUsedTracksFraming) {
  KvBuffer buffer(DataType::kBytesWritable, 1, 1 << 20);
  const std::string key = WireBytes("kk");   // 6 bytes
  const std::string value = WireBytes("vv");  // 6 bytes
  ASSERT_TRUE(buffer.Append(0, key, value));
  // 1-byte vint for each length (6, 6) + payloads.
  EXPECT_EQ(buffer.bytes_used(), 14u);
}

TEST(KvBufferTest, TextKeysSortLexicographically) {
  auto wire_text = [](const std::string& s) {
    BufferWriter writer;
    Text(s).Serialize(&writer);
    return writer.data();
  };
  KvBuffer buffer(DataType::kText, 1, 1 << 20);
  ASSERT_TRUE(buffer.Append(0, wire_text("pear"), wire_text("1")));
  ASSERT_TRUE(buffer.Append(0, wire_text("apple"), wire_text("2")));
  ASSERT_TRUE(buffer.Append(0, wire_text("orange"), wire_text("3")));
  buffer.Sort();
  EXPECT_EQ(Keys(buffer, 0),
            (std::vector<std::string>{wire_text("apple"), wire_text("orange"),
                                      wire_text("pear")}));
}

TEST(SpillSegmentTest, PartitionDataOutOfRangeDies) {
  KvBuffer buffer(DataType::kBytesWritable, 2, 1 << 20);
  buffer.Sort();
  const SpillSegment spill = buffer.ToSpill();
  EXPECT_DEATH({ (void)spill.PartitionData(5); }, "");
}

}  // namespace
}  // namespace mrmb

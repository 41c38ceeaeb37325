#include "io/merge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "io/byte_buffer.h"
#include "io/checksum.h"
#include "io/kv_buffer.h"
#include "mapred/map_output.h"

namespace mrmb {
namespace {

std::string WireBytes(const std::string& payload) {
  BufferWriter writer;
  BytesWritable(payload).Serialize(&writer);
  return writer.data();
}

// Builds a framed single-partition segment from (key, value) pairs,
// sorting them first.
std::string FramedSegment(std::vector<std::pair<std::string, std::string>>
                              pairs,
                          bool sort = true) {
  if (sort) std::sort(pairs.begin(), pairs.end());
  std::string data;
  BufferWriter writer(&data);
  for (const auto& [key, value] : pairs) {
    const std::string k = WireBytes(key);
    const std::string v = WireBytes(value);
    writer.AppendVarint64(static_cast<int64_t>(k.size()));
    writer.AppendVarint64(static_cast<int64_t>(v.size()));
    writer.AppendRaw(k);
    writer.AppendRaw(v);
  }
  return data;
}

TEST(SegmentReaderTest, EmptySegmentIsInvalid) {
  SegmentReader reader("");
  EXPECT_FALSE(reader.Valid());
}

TEST(SegmentReaderTest, WalksRecords) {
  const std::string data =
      FramedSegment({{"a", "1"}, {"b", "2"}, {"c", "3"}});
  SegmentReader reader(data);
  std::vector<std::string> keys;
  while (reader.Valid()) {
    BytesWritable key;
    BufferReader key_reader(reader.key());
    ASSERT_TRUE(key.Deserialize(&key_reader).ok());
    keys.push_back(key.bytes());
    reader.Next();
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SegmentReaderTest, NextPastEndDies) {
  SegmentReader reader(FramedSegment({{"a", "1"}}));
  reader.Next();
  EXPECT_FALSE(reader.Valid());
  EXPECT_DEATH({ reader.Next(); }, "");
}

TEST(SegmentReaderTest, TruncatedFrameIsDataLossNotFatal) {
  std::string data = FramedSegment({{"abc", "def"}});
  data.resize(data.size() - 2);
  SegmentReader reader(data);
  EXPECT_FALSE(reader.Valid());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

TEST(SegmentReaderTest, MalformedMidStreamStopsWithDataLoss) {
  // One good record, then garbage: the reader yields the good record and
  // then turns invalid with a DataLoss status instead of crashing.
  std::string data = FramedSegment({{"abc", "def"}});
  const size_t good = data.size();
  data += FramedSegment({{"ggg", "hhh"}});
  data.resize(good + 3);  // truncate the second frame
  SegmentReader reader(data);
  ASSERT_TRUE(reader.Valid());
  EXPECT_TRUE(reader.status().ok());
  reader.Next();
  EXPECT_FALSE(reader.Valid());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

TEST(SegmentReaderTest, KeyValidationRejectsReframedGarbage) {
  // A bit flip in a key-length varint can re-frame the stream into records
  // that still fit the slice but whose keys are the wrong shape. The
  // type-aware reader refuses them; the plain reader (used on trusted,
  // locally-produced bytes) does not look inside the key.
  std::string data = FramedSegment({{"abcd", "wxyz"}});
  data[0] ^= 0x04;  // grow the key length, swallowing value-header bytes
  SegmentReader trusting(data);
  EXPECT_TRUE(trusting.Valid() || !trusting.status().ok());
  SegmentReader validating(data, DataType::kBytesWritable);
  EXPECT_FALSE(validating.Valid());
  EXPECT_EQ(validating.status().code(), StatusCode::kDataLoss);
}

TEST(SegmentReaderTest, KeyValidationAcceptsWellFormedRecords) {
  const std::string data = FramedSegment({{"abc", "1"}, {"xyz", "2"}});
  SegmentReader reader(data, DataType::kBytesWritable);
  int records = 0;
  while (reader.Valid()) {
    ++records;
    reader.Next();
  }
  EXPECT_EQ(records, 2);
  EXPECT_TRUE(reader.status().ok());
}

TEST(MergeIteratorTest, EmptyInputs) {
  std::vector<std::unique_ptr<RecordStream>> inputs;
  MergeIterator merged(std::move(inputs),
                       ComparatorFor(DataType::kBytesWritable));
  EXPECT_FALSE(merged.Valid());
}

TEST(MergeIteratorTest, SingleStreamPassesThrough) {
  const std::string data = FramedSegment({{"a", "1"}, {"b", "2"}});
  std::vector<std::unique_ptr<RecordStream>> inputs;
  inputs.push_back(std::make_unique<SegmentReader>(data));
  MergeIterator merged(std::move(inputs),
                       ComparatorFor(DataType::kBytesWritable));
  int count = 0;
  while (merged.Valid()) {
    ++count;
    merged.Next();
  }
  EXPECT_EQ(count, 2);
}

TEST(MergeIteratorTest, MergesSortedStreams) {
  const std::string seg1 = FramedSegment({{"a", "1"}, {"d", "4"}});
  const std::string seg2 = FramedSegment({{"b", "2"}, {"e", "5"}});
  const std::string seg3 = FramedSegment({{"c", "3"}, {"f", "6"}});
  std::vector<std::unique_ptr<RecordStream>> inputs;
  inputs.push_back(std::make_unique<SegmentReader>(seg1));
  inputs.push_back(std::make_unique<SegmentReader>(seg2));
  inputs.push_back(std::make_unique<SegmentReader>(seg3));
  MergeIterator merged(std::move(inputs),
                       ComparatorFor(DataType::kBytesWritable));
  std::string order;
  while (merged.Valid()) {
    BytesWritable key;
    BufferReader key_reader(merged.key());
    ASSERT_TRUE(key.Deserialize(&key_reader).ok());
    order += key.bytes();
    merged.Next();
  }
  EXPECT_EQ(order, "abcdef");
}

TEST(MergeIteratorTest, SkipsEmptyStreams) {
  // Readers view their bytes, so the segment must outlive the merge.
  const std::string segment = FramedSegment({{"x", "1"}});
  std::vector<std::unique_ptr<RecordStream>> inputs;
  inputs.push_back(std::make_unique<SegmentReader>(""));
  inputs.push_back(std::make_unique<SegmentReader>(segment));
  inputs.push_back(std::make_unique<SegmentReader>(""));
  MergeIterator merged(std::move(inputs),
                       ComparatorFor(DataType::kBytesWritable));
  ASSERT_TRUE(merged.Valid());
  merged.Next();
  EXPECT_FALSE(merged.Valid());
}

TEST(MergeIteratorTest, EqualKeysBreakTiesByInputIndex) {
  // Both streams hold key "k"; stream 0's record must come first.
  std::vector<std::unique_ptr<RecordStream>> inputs;
  const std::string seg0 = FramedSegment({{"k", "from0"}});
  const std::string seg1 = FramedSegment({{"k", "from1"}});
  inputs.push_back(std::make_unique<SegmentReader>(seg0));
  inputs.push_back(std::make_unique<SegmentReader>(seg1));
  MergeIterator merged(std::move(inputs),
                       ComparatorFor(DataType::kBytesWritable));
  ASSERT_TRUE(merged.Valid());
  EXPECT_EQ(merged.value(), WireBytes("from0"));
  merged.Next();
  ASSERT_TRUE(merged.Valid());
  EXPECT_EQ(merged.value(), WireBytes("from1"));
}

class MergePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MergePropertyTest, MergeEqualsGlobalSort) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 13);
  const int num_streams = static_cast<int>(rng.UniformRange(1, 8));
  std::vector<std::string> all_keys;
  std::vector<std::string> segments;
  for (int s = 0; s < num_streams; ++s) {
    std::vector<std::pair<std::string, std::string>> pairs;
    const int records = static_cast<int>(rng.UniformRange(0, 50));
    for (int r = 0; r < records; ++r) {
      std::string key(rng.UniformRange(1, 10), '\0');
      for (char& c : key) {
        c = static_cast<char>('a' + rng.Uniform(26));
      }
      all_keys.push_back(key);
      pairs.emplace_back(std::move(key), "v");
    }
    segments.push_back(FramedSegment(std::move(pairs)));
  }
  std::vector<std::unique_ptr<RecordStream>> inputs;
  for (const std::string& segment : segments) {
    inputs.push_back(std::make_unique<SegmentReader>(segment));
  }
  MergeIterator merged(std::move(inputs),
                       ComparatorFor(DataType::kBytesWritable));
  std::sort(all_keys.begin(), all_keys.end());
  size_t i = 0;
  while (merged.Valid()) {
    ASSERT_LT(i, all_keys.size());
    EXPECT_EQ(merged.key(), WireBytes(all_keys[i]));
    merged.Next();
    ++i;
  }
  EXPECT_EQ(i, all_keys.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergePropertyTest, ::testing::Range(1, 21));

// Wide fan-in stress for the loser tree: a non-power-of-two stream count
// (internal nodes then form a ragged tree), staggered stream lengths
// including empty and single-record streams, and duplicated keys everywhere.
// Checks total order, record conservation, and that equal keys drain in
// input-index order even as streams exhaust mid-merge.
TEST(MergeIteratorTest, ManyStreamsLoserTreeStress) {
  constexpr int kStreams = 37;
  Rng rng(0xD1CE);
  std::vector<std::string> segments;
  std::vector<std::pair<std::string, int>> expected;  // (key, stream)
  for (int s = 0; s < kStreams; ++s) {
    // Lengths 0, 1, 2, ... staggered so early streams exhaust first.
    const int records =
        s % 5 == 0 ? 0 : static_cast<int>(rng.UniformRange(1, 3 * s + 2));
    std::vector<std::pair<std::string, std::string>> pairs;
    for (int r = 0; r < records; ++r) {
      // A tiny key alphabet forces heavy duplication across streams.
      const std::string key(1 + rng.Uniform(3),
                            static_cast<char>('a' + rng.Uniform(4)));
      pairs.emplace_back(key, std::to_string(s));
    }
    std::sort(pairs.begin(), pairs.end());
    for (const auto& [key, value] : pairs) expected.emplace_back(key, s);
    segments.push_back(FramedSegment(std::move(pairs)));
  }
  // Equal keys must surface in stream order: stable-sort the expectation by
  // key with the stream index as tiebreaker.
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first ||
                            (a.first == b.first && a.second < b.second);
                   });

  std::vector<std::unique_ptr<RecordStream>> inputs;
  for (const std::string& segment : segments) {
    inputs.push_back(std::make_unique<SegmentReader>(segment));
  }
  MergeIterator merged(std::move(inputs),
                       ComparatorFor(DataType::kBytesWritable));
  size_t i = 0;
  while (merged.Valid()) {
    ASSERT_LT(i, expected.size());
    EXPECT_EQ(merged.key(), WireBytes(expected[i].first)) << "record " << i;
    EXPECT_EQ(merged.value(), WireBytes(std::to_string(expected[i].second)))
        << "record " << i;
    merged.Next();
    ++i;
  }
  EXPECT_EQ(i, expected.size());
  EXPECT_TRUE(merged.status().ok());
}

TEST(GroupedIteratorTest, GroupsEqualKeys) {
  const std::string data = FramedSegment(
      {{"a", "1"}, {"a", "2"}, {"b", "3"}, {"c", "4"}, {"c", "5"},
       {"c", "6"}});
  SegmentReader reader(data);
  GroupedIterator groups(&reader, ComparatorFor(DataType::kBytesWritable));
  std::map<std::string, int> value_counts;
  while (groups.NextGroup()) {
    BytesWritable key;
    BufferReader key_reader(groups.group_key());
    ASSERT_TRUE(key.Deserialize(&key_reader).ok());
    int count = 0;
    while (groups.NextValue()) ++count;
    value_counts[key.bytes()] = count;
  }
  EXPECT_EQ(value_counts.size(), 3u);
  EXPECT_EQ(value_counts["a"], 2);
  EXPECT_EQ(value_counts["b"], 1);
  EXPECT_EQ(value_counts["c"], 3);
}

TEST(GroupedIteratorTest, AbandoningGroupSkipsItsValues) {
  const std::string data =
      FramedSegment({{"a", "1"}, {"a", "2"}, {"a", "3"}, {"b", "4"}});
  SegmentReader reader(data);
  GroupedIterator groups(&reader, ComparatorFor(DataType::kBytesWritable));
  ASSERT_TRUE(groups.NextGroup());  // group "a", values untouched
  ASSERT_TRUE(groups.NextGroup());  // must land on "b"
  EXPECT_EQ(groups.group_key(), WireBytes("b"));
  ASSERT_TRUE(groups.NextValue());
  EXPECT_EQ(groups.value(), WireBytes("4"));
  EXPECT_FALSE(groups.NextValue());
  EXPECT_FALSE(groups.NextGroup());
}

TEST(GroupedIteratorTest, PartiallyConsumedGroup) {
  const std::string data =
      FramedSegment({{"a", "1"}, {"a", "2"}, {"a", "3"}, {"b", "4"}});
  SegmentReader reader(data);
  GroupedIterator groups(&reader, ComparatorFor(DataType::kBytesWritable));
  ASSERT_TRUE(groups.NextGroup());
  ASSERT_TRUE(groups.NextValue());  // consume just one of three
  ASSERT_TRUE(groups.NextGroup());
  EXPECT_EQ(groups.group_key(), WireBytes("b"));
}

TEST(GroupedIteratorTest, EmptyStream) {
  SegmentReader reader("");
  GroupedIterator groups(&reader, ComparatorFor(DataType::kBytesWritable));
  EXPECT_FALSE(groups.NextGroup());
  EXPECT_FALSE(groups.NextValue());
}

TEST(GroupedIteratorTest, SingleGroupSingleValue) {
  const std::string data = FramedSegment({{"only", "v"}});
  SegmentReader reader(data);
  GroupedIterator groups(&reader, ComparatorFor(DataType::kBytesWritable));
  ASSERT_TRUE(groups.NextGroup());
  ASSERT_TRUE(groups.NextValue());
  EXPECT_FALSE(groups.NextValue());
  EXPECT_FALSE(groups.NextGroup());
}

TEST(GroupedIteratorTest, WorksOverMergeIterator) {
  // Equal keys across streams group together.
  const std::string seg1 = FramedSegment({{"k1", "a"}, {"k2", "b"}});
  const std::string seg2 = FramedSegment({{"k1", "c"}, {"k3", "d"}});
  std::vector<std::unique_ptr<RecordStream>> inputs;
  inputs.push_back(std::make_unique<SegmentReader>(seg1));
  inputs.push_back(std::make_unique<SegmentReader>(seg2));
  MergeIterator merged(std::move(inputs),
                       ComparatorFor(DataType::kBytesWritable));
  GroupedIterator groups(&merged, ComparatorFor(DataType::kBytesWritable));
  int group_count = 0;
  int k1_values = 0;
  while (groups.NextGroup()) {
    ++group_count;
    const bool is_k1 = groups.group_key() == WireBytes("k1");
    while (groups.NextValue()) {
      if (is_k1) ++k1_values;
    }
  }
  EXPECT_EQ(group_count, 3);
  EXPECT_EQ(k1_values, 2);
}

// A stream whose key/value views die on every Next(): each record is
// re-buffered into the same storage, the worst case the stable_views()
// protocol exists for.
class RebufferingStream final : public RecordStream {
 public:
  explicit RebufferingStream(
      std::vector<std::pair<std::string, std::string>> records)
      : records_(std::move(records)) {}

  bool Valid() const override { return index_ < records_.size(); }
  std::string_view key() const override { return key_; }
  std::string_view value() const override { return value_; }
  void Next() override {
    ++index_;
    Load();
  }
  Status status() const override { return status_; }
  // stable_views() deliberately left at the base-class default (false).

  void Start() { Load(); }

 private:
  void Load() {
    if (!Valid()) {
      // Poison the storage so a dangling view is caught, not silently OK.
      key_.assign("XX");
      value_.assign("XX");
      return;
    }
    key_.assign(WireBytes(records_[index_].first));
    value_.assign(WireBytes(records_[index_].second));
  }

  std::vector<std::pair<std::string, std::string>> records_;
  size_t index_ = 0;
  std::string key_;
  std::string value_;
  Status status_;
};

TEST(GroupedIteratorTest, StableInputKeepsGroupKeyAsBorrowedView) {
  // SegmentReader promises stable views, so the group key must stay a
  // zero-copy pointer into the caller's segment across NextValue calls.
  const std::string data =
      FramedSegment({{"a", "1"}, {"a", "2"}, {"b", "3"}});
  SegmentReader reader(data);
  ASSERT_TRUE(reader.stable_views());
  GroupedIterator groups(&reader, ComparatorFor(DataType::kBytesWritable));
  ASSERT_TRUE(groups.NextGroup());
  const char* lo = data.data();
  const char* hi = data.data() + data.size();
  EXPECT_TRUE(groups.group_key().data() >= lo &&
              groups.group_key().data() < hi);
  ASSERT_TRUE(groups.NextValue());
  ASSERT_TRUE(groups.NextValue());
  // Still borrowed, still correct, after the stream advanced twice.
  EXPECT_TRUE(groups.group_key().data() >= lo &&
              groups.group_key().data() < hi);
  EXPECT_EQ(groups.group_key(), WireBytes("a"));
}

TEST(GroupedIteratorTest, UnstableInputCopiesKeyBeforeStreamAdvances) {
  RebufferingStream stream(
      {{"a", "1"}, {"a", "2"}, {"a", "3"}, {"b", "4"}});
  stream.Start();
  ASSERT_FALSE(stream.stable_views());
  GroupedIterator groups(&stream, ComparatorFor(DataType::kBytesWritable));
  ASSERT_TRUE(groups.NextGroup());
  EXPECT_EQ(groups.group_key(), WireBytes("a"));
  int count = 0;
  while (groups.NextValue()) {
    ++count;
    // The underlying storage now holds a later record (or poison), but the
    // group key was pinned before the first advance.
    EXPECT_EQ(groups.group_key(), WireBytes("a")) << "value " << count;
  }
  EXPECT_EQ(count, 3);
  ASSERT_TRUE(groups.NextGroup());
  EXPECT_EQ(groups.group_key(), WireBytes("b"));
  ASSERT_TRUE(groups.NextValue());
  EXPECT_EQ(groups.value(), WireBytes("4"));
}

TEST(GroupedIteratorTest, UnstableInputAbandonedGroupStillSkipsCorrectly) {
  RebufferingStream stream({{"a", "1"}, {"a", "2"}, {"b", "3"}});
  stream.Start();
  GroupedIterator groups(&stream, ComparatorFor(DataType::kBytesWritable));
  ASSERT_TRUE(groups.NextGroup());  // "a", abandoned unconsumed
  ASSERT_TRUE(groups.NextGroup());  // must skip a's values and land on "b"
  EXPECT_EQ(groups.group_key(), WireBytes("b"));
  ASSERT_TRUE(groups.NextValue());
  EXPECT_EQ(groups.value(), WireBytes("3"));
  EXPECT_FALSE(groups.NextGroup());
}

// ---- Segment merges (mapred/map_output.h) ------------------------------

// Three sorted, sealed spills over four partitions (partition 3 stays
// empty). Keys repeat within and across spills and every value is unique,
// so the merged bytes pin the equal-key order as well as the key order.
std::vector<SpillSegment> ThreeSpills() {
  std::vector<SpillSegment> spills;
  Rng rng(0x5E6);
  for (int spill = 0; spill < 3; ++spill) {
    KvBuffer buffer(DataType::kBytesWritable, 4, 1 << 20);
    for (int i = 0; i < 300; ++i) {
      const int partition = static_cast<int>(rng.Uniform(3));
      const std::string key =
          WireBytes("key-" + std::to_string(rng.Uniform(12)));
      const std::string value =
          WireBytes(std::to_string(spill) + ":" + std::to_string(i));
      EXPECT_TRUE(buffer.Append(partition, key, value));
    }
    buffer.Sort();
    spills.push_back(buffer.ToSpill());
  }
  return spills;
}

std::vector<const SpillSegment*> Pointers(
    const std::vector<SpillSegment>& spills) {
  std::vector<const SpillSegment*> pointers;
  for (const SpillSegment& spill : spills) pointers.push_back(&spill);
  return pointers;
}

// CRC32C of a segment's bytes plus every partition's (records, length,
// crc) triple.
uint32_t SegmentFingerprint(const SpillSegment& segment) {
  uint32_t crc = Crc32c(segment.data);
  for (const SpillSegment::PartitionRange& range : segment.partitions) {
    BufferWriter writer;
    writer.AppendFixed64(static_cast<uint64_t>(range.records));
    writer.AppendFixed64(static_cast<uint64_t>(range.length));
    writer.AppendFixed32(range.crc);
    crc = Crc32c(crc, writer.data());
  }
  return crc;
}

// Both captured from the merge that copied every record into a new string.
constexpr uint32_t kGoldenMergedSegment = 0xf6af3291u;
constexpr uint32_t kGoldenMergedRuns = 0xc3a881c4u;

TEST(MergeSegmentsTest, ThreeSpillsMatchGolden) {
  const std::vector<SpillSegment> spills = ThreeSpills();
  auto merged = MergeSegments(Pointers(spills),
                              ComparatorFor(DataType::kBytesWritable));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(merged->sealed);
  EXPECT_TRUE(VerifySegment(*merged).ok());
  ASSERT_EQ(merged->partitions.size(), 4u);
  EXPECT_EQ(merged->total_records(), 900);
  EXPECT_EQ(merged->partitions[3].records, 0);
  EXPECT_EQ(merged->partitions[3].length, 0);
  EXPECT_EQ(SegmentFingerprint(*merged), kGoldenMergedSegment);
}

TEST(MergeSegmentsTest, CorruptInputPartitionIsDataLossWithNoOutput) {
  std::vector<SpillSegment> spills = ThreeSpills();
  const SpillSegment::PartitionRange& range = spills[1].partitions[2];
  spills[1].data[static_cast<size_t>(range.offset + range.length / 2)] ^= 4;
  auto merged = MergeSegments(Pointers(spills),
                              ComparatorFor(DataType::kBytesWritable));
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kDataLoss)
      << merged.status().ToString();
}

std::string Materialise(const std::vector<std::string_view>& slices) {
  std::string bytes;
  AppendSlices(slices, &bytes);
  return bytes;
}

// The bytes of partition `p`'s merge of `spills`, one run per spill.
Result<std::string> MergedPartitionBytes(
    const std::vector<SpillSegment>& spills, int p, int64_t* records) {
  std::vector<FramedRun> runs;
  for (size_t i = 0; i < spills.size(); ++i) {
    runs.push_back({{spills[i].PartitionData(p)}, static_cast<int>(i)});
  }
  MRMB_ASSIGN_OR_RETURN(
      SlicedRun merged,
      MergeFramedRuns(runs, ComparatorFor(DataType::kBytesWritable)));
  const std::string bytes = Materialise(merged.slices);
  EXPECT_EQ(merged.bytes, static_cast<int64_t>(bytes.size()));
  *records = merged.records;
  return bytes;
}

TEST(MergeFramedRunsTest, MergedBytesMatchGolden) {
  const std::vector<SpillSegment> spills = ThreeSpills();
  uint32_t crc = kCrc32cInit;
  int64_t total = 0;
  for (int p = 0; p < 4; ++p) {
    int64_t records = 0;
    auto bytes = MergedPartitionBytes(spills, p, &records);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    crc = Crc32c(crc, *bytes);
    total += records;
  }
  EXPECT_EQ(total, 900);
  EXPECT_EQ(crc, kGoldenMergedRuns);
}

// A fold of a fold: merging spills 0 and 1, then merging that sliced run
// with spill 2, gives the bytes of the flat three-way merge.
TEST(MergeFramedRunsTest, SlicedRunFeedsAnotherMerge) {
  const std::vector<SpillSegment> spills = ThreeSpills();
  const RawComparator* comparator = ComparatorFor(DataType::kBytesWritable);
  for (int p = 0; p < 4; ++p) {
    auto first = MergeFramedRuns({{{spills[0].PartitionData(p)}, 0},
                                  {{spills[1].PartitionData(p)}, 1}},
                                 comparator);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    auto second = MergeFramedRuns(
        {{first->slices, -1}, {{spills[2].PartitionData(p)}, 2}},
        comparator);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    int64_t records = 0;
    auto flat = MergedPartitionBytes(spills, p, &records);
    ASSERT_TRUE(flat.ok()) << flat.status().ToString();
    EXPECT_EQ(second->records, records) << "partition " << p;
    EXPECT_EQ(Materialise(second->slices), *flat) << "partition " << p;
  }
}

TEST(MergeFramedRunsTest, NonInterleavedRunsComeBackAsAtMostTwoSlices) {
  const std::string low = FramedSegment({{"a", "1"}, {"b", "2"}, {"c", "3"}});
  const std::string high = FramedSegment({{"x", "7"}, {"y", "8"}, {"z", "9"}});
  // The low run arrives as two slices of one string, split at a record
  // boundary, plus an empty one: the merge joins them back.
  const size_t split = FramedSegment({{"a", "1"}}).size();
  const std::string_view low_view(low);
  const RawComparator* comparator = ComparatorFor(DataType::kBytesWritable);
  for (bool high_first : {false, true}) {
    std::vector<FramedRun> runs = {
        {{low_view.substr(0, split), {}, low_view.substr(split)}, 0},
        {{high}, 1}};
    if (high_first) std::swap(runs[0], runs[1]);
    auto merged = MergeFramedRuns(runs, comparator);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_LE(merged->slices.size(), 2u);
    EXPECT_EQ(merged->records, 6);
    EXPECT_EQ(Materialise(merged->slices), low + high);
  }
}

TEST(MergeFramedRunsTest, MalformedRunIsBlamedOnItsSource) {
  const std::string good = FramedSegment({{"a", "1"}, {"c", "3"}});
  std::string bad = FramedSegment({{"b", "2"}, {"d", "4"}});
  bad.resize(bad.size() - 1);  // truncate the last frame
  std::vector<int> corrupt;
  auto merged = MergeFramedRuns({{{good}, 4}, {{bad}, 9}},
                                ComparatorFor(DataType::kBytesWritable),
                                &corrupt);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(corrupt, std::vector<int>{9});
}

// ---- Sliced runs -------------------------------------------------------

TEST(SegmentReaderTest, SlicesYieldTheRecordsOfTheirConcatenation) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 0; i < 9; ++i) {
    pairs.emplace_back("key" + std::to_string(i), std::string(i, 'v'));
  }
  const std::string whole = FramedSegment(pairs);
  // Record boundaries, from a reader over the whole segment.
  std::vector<size_t> ends;
  {
    SegmentReader reader(whole);
    size_t end = 0;
    for (; reader.Valid(); reader.Next()) {
      end += reader.framed().size();
      ends.push_back(end);
    }
    ASSERT_EQ(ends.size(), 9u);
    ASSERT_EQ(end, whole.size());
  }
  // Empty slices first, in the middle and last; slices of one, three and
  // five records.
  const std::string_view view(whole);
  const std::vector<std::string_view> slices = {
      {},
      view.substr(0, ends[0]),
      {},
      {},
      view.substr(ends[0], ends[3] - ends[0]),
      view.substr(ends[3]),
      {}};
  SegmentReader expected(whole, DataType::kBytesWritable);
  SegmentReader sliced(slices, DataType::kBytesWritable);
  std::string framed;
  int records = 0;
  for (; expected.Valid(); expected.Next(), sliced.Next()) {
    ASSERT_TRUE(sliced.Valid()) << "record " << records;
    EXPECT_EQ(sliced.key(), expected.key());
    EXPECT_EQ(sliced.value(), expected.value());
    EXPECT_EQ(sliced.framed(), expected.framed());
    framed.append(sliced.framed());
    ++records;
  }
  EXPECT_FALSE(sliced.Valid());
  EXPECT_TRUE(sliced.status().ok());
  EXPECT_EQ(records, 9);
  EXPECT_EQ(framed, whole);

  SegmentReader only_empty(std::vector<std::string_view>{{}, {}},
                           DataType::kBytesWritable);
  EXPECT_FALSE(only_empty.Valid());
  EXPECT_TRUE(only_empty.status().ok());
}

TEST(SegmentReaderTest, MalformedFrameInLaterSliceIsDataLoss) {
  const std::string first = FramedSegment({{"a", "1"}, {"b", "2"}});
  std::string second = FramedSegment({{"c", "3"}, {"d", "4"}});
  second.resize(second.size() - 2);  // the last frame runs past the slice
  SegmentReader reader({first, {}, second}, DataType::kBytesWritable);
  int records = 0;
  for (; reader.Valid(); reader.Next()) ++records;
  EXPECT_EQ(records, 3);
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss)
      << reader.status().ToString();
}

TEST(SegmentReaderTest, FrameSplitAcrossSlicesIsDataLoss) {
  // Each slice must hold whole records: a frame cut in two is malformed
  // even though the concatenation would parse.
  const std::string whole = FramedSegment({{"a", "1"}, {"b", "2"}});
  const std::string_view view(whole);
  SegmentReader reader({view.substr(0, 3), view.substr(3)},
                       DataType::kBytesWritable);
  EXPECT_FALSE(reader.Valid());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace mrmb

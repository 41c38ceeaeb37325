// Golden-checksum determinism tests for the sort/merge engine.
//
// The map-side sort, spill and merge pipeline must produce byte-identical
// output for any thread count, and any engine rewrite must keep the exact
// byte stream: these tests pin CRC32C fingerprints of sorted spills and of
// a full job's committed output. The golden values were captured from the
// original std::stable_sort/binary-heap engine, so the bucketed
// prefix-comparison engine is provably byte-compatible with it.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "io/byte_buffer.h"
#include "io/checksum.h"
#include "io/kv_buffer.h"
#include "mapred/local_runner.h"
#include "mapred/null_formats.h"
#include "order_digest.h"

namespace mrmb {
namespace {

// ---- Deterministic record material (frozen: golden values depend on it) --

// Arbitrary bytes including '\0' and non-ASCII, length in [min_len, max_len].
std::string RandomPayload(Rng* rng, size_t min_len, size_t max_len) {
  const size_t len =
      min_len + static_cast<size_t>(rng->Uniform(max_len - min_len + 1));
  std::string payload(len, '\0');
  for (char& c : payload) {
    c = static_cast<char>(rng->Uniform(256));
  }
  return payload;
}

std::string WireBytes(const std::string& payload) {
  BufferWriter writer;
  BytesWritable(payload).Serialize(&writer);
  return writer.data();
}

std::string WireText(const std::string& payload) {
  BufferWriter writer;
  Text(payload).Serialize(&writer);
  return writer.data();
}

std::string WireInt(int32_t value) {
  BufferWriter writer;
  IntWritable(value).Serialize(&writer);
  return writer.data();
}

std::string WireLong(int64_t value) {
  BufferWriter writer;
  LongWritable(value).Serialize(&writer);
  return writer.data();
}

// Zero, small negatives and positives (many ties) and full-range values
// (every byte of the normalized prefix differs somewhere).
int64_t MixedLong(Rng* rng) {
  switch (rng->Uniform(4)) {
    case 0:
      return 0;
    case 1:
      return -1 - static_cast<int64_t>(rng->Uniform(1000));
    case 2:
      return static_cast<int64_t>(rng->Uniform(1000));
    default:
      return static_cast<int64_t>(rng->Next64());
  }
}

// Fills `buffer` with `records` pseudo-random records of `type` spread over
// the buffer's partitions. Never spills (caller sizes the buffer).
void FillBuffer(KvBuffer* buffer, DataType type, int64_t records,
                uint64_t seed) {
  Rng rng(seed);
  for (int64_t i = 0; i < records; ++i) {
    const int partition =
        static_cast<int>(rng.Uniform(
            static_cast<uint64_t>(buffer->num_partitions())));
    std::string key;
    switch (type) {
      case DataType::kBytesWritable:
        key = WireBytes(RandomPayload(&rng, 0, 24));
        break;
      case DataType::kText:
        key = WireText(RandomPayload(&rng, 0, 24));
        break;
      case DataType::kIntWritable:
        key = WireInt(static_cast<int32_t>(rng.Next64()));
        break;
      case DataType::kLongWritable:
        key = WireLong(MixedLong(&rng));
        break;
      default:
        key = WireBytes(RandomPayload(&rng, 1, 8));
        break;
    }
    const std::string value = WireBytes(RandomPayload(&rng, 0, 16));
    ASSERT_TRUE(buffer->Append(partition, key, value));
  }
}

// Eight distinct keys of `type`. The BytesWritable set has keys shorter
// than the 8-byte normalized prefix ("a" and "a\0" share a prefix),
// several that share one 8-byte prefix, and the empty key; the
// LongWritable set spans the signed range.
std::string DuplicateKey(DataType type, uint64_t id) {
  if (type == DataType::kLongWritable) {
    static constexpr int64_t kKeys[8] = {INT64_MIN, -1, 0, 1, 255, 256,
                                         int64_t{1} << 40, INT64_MAX};
    return WireLong(kKeys[id]);
  }
  static const std::string kKeys[8] = {
      "",         std::string("a\0", 2), "a",  "shared-prefix-1",
      "shared-p", "shared-prefix-0",      "zz", "\xff\xfe"};
  return WireBytes(kKeys[id]);
}

// Fills `buffer` with `records` records whose keys repeat (eight distinct)
// and whose values are all distinct, so the spill bytes show the order
// the sort leaves equal keys in.
void FillDuplicateHeavy(KvBuffer* buffer, DataType type, int64_t records,
                        uint64_t seed) {
  Rng rng(seed);
  for (int64_t i = 0; i < records; ++i) {
    const int partition = static_cast<int>(
        rng.Uniform(static_cast<uint64_t>(buffer->num_partitions())));
    const std::string key = DuplicateKey(type, rng.Uniform(8));
    ASSERT_TRUE(buffer->Append(partition, key, WireLong(i)));
  }
}

// CRC32C fingerprint of a sorted spill: the full data bytes plus every
// partition's (records, length, crc) triple — but never offsets, which are
// not part of the byte-stream contract for empty partitions.
uint32_t SpillFingerprint(const SpillSegment& spill) {
  uint32_t crc = Crc32c(spill.data);
  for (const SpillSegment::PartitionRange& range : spill.partitions) {
    BufferWriter writer;
    writer.AppendFixed64(static_cast<uint64_t>(range.records));
    writer.AppendFixed64(static_cast<uint64_t>(range.length));
    writer.AppendFixed32(range.crc);
    crc = Crc32c(crc, writer.data());
  }
  return crc;
}

// Sorts `buffer` with `threads` sorter threads. The spill bytes must not
// depend on `threads` in any way.
void SortWithThreads(KvBuffer* buffer, int threads) {
  if (threads <= 1) {
    buffer->Sort();
    return;
  }
  ThreadPool pool(threads);
  buffer->Sort(&pool);
}

uint32_t SortedSpillFingerprint(DataType type, int num_partitions,
                                int64_t records, uint64_t seed, int threads) {
  KvBuffer buffer(type, num_partitions, 64u << 20);
  FillBuffer(&buffer, type, records, seed);
  SortWithThreads(&buffer, threads);
  return SpillFingerprint(buffer.ToSpill());
}

uint32_t DuplicateHeavySpillFingerprint(DataType type, int threads) {
  KvBuffer buffer(type, 4, 64u << 20);
  FillDuplicateHeavy(&buffer, type, 12000, 0xD0);
  SortWithThreads(&buffer, threads);
  return SpillFingerprint(buffer.ToSpill());
}

// Golden fingerprints captured from the pre-rewrite engine
// (std::stable_sort over a (partition, key) comparator, binary-heap merge).
constexpr uint32_t kGoldenBytesSpill = 0x67a45a38u;
constexpr uint32_t kGoldenTextSpill = 0x9dfc8e19u;
constexpr uint32_t kGoldenIntSpill = 0x59049c2fu;
constexpr uint32_t kGoldenJobOutput = 0x6351b944u;
// Captured from the bucketed std::stable_sort engine, before the radix
// sort replaced it.
constexpr uint32_t kGoldenLongSpill = 0x55fe9a70u;
constexpr uint32_t kGoldenDuplicateBytesSpill = 0x67cf6c47u;
constexpr uint32_t kGoldenDuplicateLongSpill = 0x6a1a4fe9u;

TEST(SortDeterminismTest, BytesSpillMatchesGoldenAcrossThreadCounts) {
  for (int threads : {1, 2, 8}) {
    EXPECT_EQ(SortedSpillFingerprint(DataType::kBytesWritable, 8, 20000,
                                     0xB5, threads),
              kGoldenBytesSpill)
        << "threads=" << threads;
  }
}

TEST(SortDeterminismTest, TextSpillMatchesGoldenAcrossThreadCounts) {
  for (int threads : {1, 2, 8}) {
    EXPECT_EQ(
        SortedSpillFingerprint(DataType::kText, 4, 12000, 0x7E, threads),
        kGoldenTextSpill)
        << "threads=" << threads;
  }
}

TEST(SortDeterminismTest, IntSpillMatchesGoldenAcrossThreadCounts) {
  for (int threads : {1, 2, 8}) {
    EXPECT_EQ(
        SortedSpillFingerprint(DataType::kIntWritable, 4, 10000, 0x11,
                               threads),
        kGoldenIntSpill)
        << "threads=" << threads;
  }
}

TEST(SortDeterminismTest, LongSpillMatchesGoldenAcrossThreadCounts) {
  for (int threads : {1, 2, 8}) {
    EXPECT_EQ(SortedSpillFingerprint(DataType::kLongWritable, 4, 10000, 0x3C,
                                     threads),
              kGoldenLongSpill)
        << "threads=" << threads;
  }
}

TEST(SortDeterminismTest, DuplicateHeavyBytesSpillMatchesGolden) {
  for (int threads : {1, 2, 8}) {
    EXPECT_EQ(DuplicateHeavySpillFingerprint(DataType::kBytesWritable,
                                             threads),
              kGoldenDuplicateBytesSpill)
        << "threads=" << threads;
  }
}

TEST(SortDeterminismTest, DuplicateHeavyLongSpillMatchesGolden) {
  for (int threads : {1, 2, 8}) {
    EXPECT_EQ(DuplicateHeavySpillFingerprint(DataType::kLongWritable,
                                             threads),
              kGoldenDuplicateLongSpill)
        << "threads=" << threads;
  }
}

// ---- Full-job golden: collect -> sort -> spill -> merge -> shuffle ->
// merge -> reduce -> output, fingerprinted per reducer ---------------------

// Emits a deterministic pseudo-random batch of Text-keyed records per map
// task (NullInputFormat feeds each map exactly one dummy record).
class GoldenMapper final : public Mapper {
 public:
  explicit GoldenMapper(int task_id) : task_id_(task_id) {}

  void Map(std::string_view, std::string_view, MapContext* context) override {
    Rng rng(0xC0FFEE + static_cast<uint64_t>(task_id_) * 131);
    for (int i = 0; i < 5000; ++i) {
      // A small key pool so reducers see real groups; keys share long
      // prefixes to exercise the comparator fallback path.
      const uint64_t id = rng.Uniform(64);
      const std::string key =
          WireText("shared-prefix-key-" + std::to_string(id));
      const std::string value = WireBytes(RandomPayload(&rng, 0, 12));
      context->Emit(key, value);
    }
  }

 private:
  int task_id_;
};

// Emits (key, count || byte_sum) so the output depends on every value byte.
class FingerprintReducer final : public Reducer {
 public:
  void Reduce(std::string_view key, ValueIterator* values,
              ReduceContext* context) override {
    int64_t count = 0;
    uint64_t byte_sum = 0;
    while (values->Next()) {
      ++count;
      for (const char c : values->value()) {
        byte_sum += static_cast<uint8_t>(c);
      }
    }
    BufferWriter writer;
    writer.AppendFixed64(static_cast<uint64_t>(count));
    writer.AppendFixed64(byte_sum);
    context->Emit(key, writer.data());
  }
};

// Frames every committed record into a per-reducer byte stream.
class CapturingOutputFormat final : public OutputFormat {
 public:
  std::unique_ptr<RecordWriter> CreateWriter(const JobConf&,
                                             int task_id) override {
    class Writer final : public RecordWriter {
     public:
      explicit Writer(std::string* out) : writer_(out) {}
      void Write(std::string_view key, std::string_view value) override {
        writer_.AppendVarint64(static_cast<int64_t>(key.size()));
        writer_.AppendVarint64(static_cast<int64_t>(value.size()));
        writer_.AppendRaw(key);
        writer_.AppendRaw(value);
      }
      Status Close() override { return Status::OK(); }

     private:
      BufferWriter writer_;
    };
    return std::make_unique<Writer>(&streams_[task_id]);
  }

  uint32_t Fingerprint() const {
    uint32_t crc = kCrc32cInit;
    for (const auto& [reducer, stream] : streams_) {
      BufferWriter writer;
      writer.AppendFixed32(static_cast<uint32_t>(reducer));
      crc = Crc32c(crc, writer.data());
      crc = Crc32c(crc, stream);
    }
    return crc;
  }

 private:
  std::map<int, std::string> streams_;
};

uint32_t JobOutputFingerprint(int local_threads, int sort_threads,
                              double reduce_slowstart = 0.05,
                              int merge_factor = 10,
                              MapOutputCodec codec = MapOutputCodec::kNone) {
  JobConf conf;
  conf.num_maps = 4;
  conf.num_reduces = 3;
  conf.record.type = DataType::kText;
  conf.io_sort_bytes = 64 * 1024;  // forces several spills + merge per map
  conf.spill_percent = 1.0;
  conf.local_threads = local_threads;
  conf.sort_threads = sort_threads;
  conf.reduce_slowstart = reduce_slowstart;
  conf.merge_factor = merge_factor;
  conf.map_output_codec = codec;
  LocalJobRunner runner(conf);
  NullInputFormat input;
  CapturingOutputFormat output;
  auto result = runner.Run(
      &input, [](int task) { return std::make_unique<GoldenMapper>(task); },
      [](int) { return std::make_unique<FingerprintReducer>(); }, &output);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return output.Fingerprint();
}

TEST(SortDeterminismTest, JobOutputMatchesGoldenAcrossThreadCounts) {
  for (int local_threads : {1, 2, 8}) {
    EXPECT_EQ(JobOutputFingerprint(local_threads, /*sort_threads=*/1),
              kGoldenJobOutput)
        << "local_threads=" << local_threads;
  }
}

TEST(SortDeterminismTest, JobOutputMatchesGoldenAcrossSortThreadCounts) {
  for (int sort_threads : {2, 8}) {
    EXPECT_EQ(JobOutputFingerprint(/*local_threads=*/2, sort_threads),
              kGoldenJobOutput)
        << "sort_threads=" << sort_threads;
  }
}

// The pipelined shuffle must be invisible in the bytes: however much the
// map phase and the reduce-side fetch/merge overlap (slow-start 0 =
// fetchers race the first commit; 1.0 = full map barrier, the pre-pipeline
// behaviour), the committed output equals the golden fingerprint.
TEST(SortDeterminismTest, JobOutputMatchesGoldenAcrossSlowstartAndThreads) {
  for (double slowstart : {0.0, 0.05, 1.0}) {
    for (int local_threads : {1, 2, 8}) {
      EXPECT_EQ(JobOutputFingerprint(local_threads, /*sort_threads=*/1,
                                     slowstart),
                kGoldenJobOutput)
          << "reduce_slowstart=" << slowstart
          << " local_threads=" << local_threads;
    }
  }
}

// The shuffle data plane's codecs must be invisible in the bytes: whatever
// compresses the wire, the fetch path decompresses back to the exact
// spill stream, so the committed output still equals the codec=none golden
// fingerprint.
TEST(SortDeterminismTest, JobOutputMatchesGoldenUnderEveryCodec) {
  for (MapOutputCodec codec :
       {MapOutputCodec::kLz4, MapOutputCodec::kDeflate}) {
    for (int local_threads : {1, 8}) {
      EXPECT_EQ(JobOutputFingerprint(local_threads, /*sort_threads=*/1,
                                     /*reduce_slowstart=*/0.05,
                                     /*merge_factor=*/10, codec),
                kGoldenJobOutput)
          << "codec=" << MapOutputCodecName(codec)
          << " local_threads=" << local_threads;
    }
  }
}

// The deprecated compress_map_output bool must behave exactly like
// map_output_codec=deflate.
TEST(SortDeterminismTest, DeprecatedCompressAliasMatchesGolden) {
  JobConf conf;
  conf.compress_map_output = true;
  EXPECT_EQ(conf.effective_map_output_codec(), MapOutputCodec::kDeflate);
  conf.map_output_codec = MapOutputCodec::kLz4;
  EXPECT_EQ(conf.effective_map_output_codec(), MapOutputCodec::kLz4);
}

// A tiny merge factor forces real intermediate folds (4 maps, factor 2 =>
// two background merge nodes feeding the final merge); the fold plan's
// contiguous-span tie-breaking must keep equal keys in global map order,
// so the bytes still match the flat-merge golden.
TEST(SortDeterminismTest, JobOutputMatchesGoldenWithBoundedMergeFanIn) {
  for (int local_threads : {1, 8}) {
    EXPECT_EQ(JobOutputFingerprint(local_threads, /*sort_threads=*/1,
                                   /*reduce_slowstart=*/0.0,
                                   /*merge_factor=*/2),
              kGoldenJobOutput)
        << "local_threads=" << local_threads;
  }
}

// ---- Equal-key value order at job level --------------------------------
//
// Nine maps, few keys and several spills per map: every group's values
// arrive from many spills of many maps, and the engine must hand them to
// the reducer in (map, record) order however the reduce side folds its
// streams. merge_factor 2 folds 9 -> 5 -> 3 -> 2 streams, 3 folds once
// per triple, and 16 is the flat merge. Each factor runs over the
// in-process shuffle and over tcp + lz4 with every spill on disk, where
// the folds read the reduce's own decompressed copies.

JobConf ValueOrderConf(int merge_factor, bool tcp_lz4_disk) {
  JobConf conf;
  conf.num_maps = 9;
  conf.num_reduces = 2;
  conf.records_per_map = 400;
  conf.record.type = DataType::kBytesWritable;
  conf.record.key_size = 8;
  conf.record.value_size = 24;
  conf.record.num_unique_keys = 5;
  conf.io_sort_bytes = 8 << 10;  // several spills per map
  conf.merge_factor = merge_factor;
  conf.local_threads = 4;
  conf.seed = 19;
  if (tcp_lz4_disk) {
    conf.shuffle_transport = ShuffleTransport::kTcp;
    conf.map_output_codec = MapOutputCodec::kLz4;
    conf.spill_budget_bytes = 0;
  }
  return conf;
}

// Captured from the engine that copied every fold's merged run.
constexpr uint32_t kGoldenValueOrderDigest = 0xb9be9a4bu;
constexpr uint32_t kGoldenSummedOutput = 0xb399a2e3u;

TEST(SortDeterminismTest, ValueOrderIdenticalAcrossFoldPlansAndTransports) {
  for (bool tcp_lz4_disk : {false, true}) {
    for (int merge_factor : {2, 3, 16}) {
      auto job = RunOrderDigestJob(ValueOrderConf(merge_factor, tcp_lz4_disk));
      ASSERT_TRUE(job.ok()) << job.status().ToString();
      EXPECT_GT(job->spill_count, 2 * 9);
      EXPECT_GT(job->reduce_groups, 2);
      EXPECT_EQ(job->intermediate_merges,
                merge_factor == 2 ? 2 * 7 : merge_factor == 3 ? 2 * 3 : 0)
          << "merge_factor=" << merge_factor;
      EXPECT_EQ(job->output_fingerprint, kGoldenValueOrderDigest)
          << "merge_factor=" << merge_factor
          << " tcp_lz4_disk=" << tcp_lz4_disk;
    }
  }
}

// The same job on LongWritable records with the sum combiner at every
// stage, reduce-side folds included (min_spills_for_combine 1).
TEST(SortDeterminismTest, SummedOutputIdenticalAcrossFoldPlans) {
  for (int merge_factor : {2, 3, 16}) {
    JobConf conf = ValueOrderConf(merge_factor, /*tcp_lz4_disk=*/false);
    conf.record.type = DataType::kLongWritable;
    conf.combiner = CombinerKind::kSum;
    conf.min_spills_for_combine = 1;
    auto job = LocalJobRunner::RunStandalone(conf);
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    if (merge_factor < conf.num_maps) {
      EXPECT_GT(job->combine_reduce_input_records, 0)
          << "merge_factor=" << merge_factor;
    }
    EXPECT_EQ(job->output_fingerprint, kGoldenSummedOutput)
        << "merge_factor=" << merge_factor;
  }
}

}  // namespace
}  // namespace mrmb

// Tests for the combining pipeline (per-spill, merge-time, and in-node
// combining): byte-identity of job output across every stage combination,
// the CombineSortedRun kernel's algebra (sorted, sealed, sums exact), and
// the recovery contract — a corrupted or crashed member invalidates the
// combined shuffle stream, the engine rebuilds, and the output fingerprint
// never moves.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "io/byte_buffer.h"
#include "io/checksum.h"
#include "io/comparator.h"
#include "io/kv_buffer.h"
#include "mapred/fault_injector.h"
#include "mapred/local_runner.h"
#include "mapred/map_output.h"
#include "mapred/null_formats.h"

namespace mrmb {
namespace {

namespace fs = std::filesystem;

// Aggregatable workload: LongWritable pairs with few unique keys and a
// sort buffer small enough that every map seals several spills, so all
// three combine stages have work to do.
JobConf AggJob() {
  JobConf conf;
  conf.num_maps = 6;
  conf.num_reduces = 3;
  conf.records_per_map = 600;
  conf.record.type = DataType::kLongWritable;
  conf.record.num_unique_keys = 5;
  conf.io_sort_bytes = 4 << 10;
  conf.seed = 77;
  return conf;
}

JobConf CombineAll(JobConf conf) {
  conf.combiner = CombinerKind::kSum;
  conf.min_spills_for_combine = 2;
  conf.node_combine_min_maps = 2;
  return conf;
}

JobConf WithPlan(JobConf conf, const std::string& spec) {
  auto plan = LocalFaultPlan::Parse(spec);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  conf.local_fault_plan = *plan;
  return conf;
}

// Runs the job with a SummingReducer final regardless of conf.combiner, so
// the output fingerprint is invariant to how much combining happened and
// every variant can be compared against the no-combiner baseline.
Result<LocalJobResult> RunSumJob(const JobConf& conf) {
  LocalJobRunner runner(conf);
  NullInputFormat input;
  NullOutputFormat output;
  return runner.Run(
      &input,
      [&conf](int task_id) {
        return std::make_unique<GeneratingMapper>(conf, task_id);
      },
      [](int) -> std::unique_ptr<Reducer> {
        return std::make_unique<SummingReducer>();
      },
      &output, /*partitioner_factory=*/nullptr,
      MakeBuiltinCombiner(conf.combiner));
}

// The combiner-off fingerprint every combined variant must reproduce.
uint32_t GoldenFingerprint() {
  static const uint32_t fingerprint = [] {
    auto job = RunSumJob(AggJob());
    EXPECT_TRUE(job.ok()) << job.status().ToString();
    return job.ok() ? job->output_fingerprint : 0u;
  }();
  return fingerprint;
}

// ---- Stage ablation --------------------------------------------------

TEST(CombinerStagesTest, EachStageCutsServedBytesOutputUnchanged) {
  struct Stage {
    const char* name;
    CombinerKind combiner;
    int min_spills;
    int node_min_maps;
  };
  const Stage stages[] = {
      {"off", CombinerKind::kNone, 0, 0},
      {"per_spill", CombinerKind::kSum, 0, 0},
      {"merge", CombinerKind::kSum, 2, 0},
      {"in_node", CombinerKind::kSum, 2, 2},
  };
  std::vector<int64_t> served;
  for (const Stage& stage : stages) {
    JobConf conf = AggJob();
    conf.combiner = stage.combiner;
    conf.min_spills_for_combine = stage.min_spills;
    conf.node_combine_min_maps = stage.node_min_maps;
    auto job = RunSumJob(conf);
    ASSERT_TRUE(job.ok()) << stage.name << ": " << job.status().ToString();
    EXPECT_EQ(job->output_fingerprint, GoldenFingerprint()) << stage.name;
    served.push_back(job->shuffle_serve_bytes);
    if (stage.combiner == CombinerKind::kNone) {
      EXPECT_EQ(job->combine_removed_records, 0) << stage.name;
      EXPECT_EQ(job->shuffle_savings_ratio, 0.0) << stage.name;
    } else {
      EXPECT_GT(job->combine_spill_input_records, 0) << stage.name;
    }
    if (stage.min_spills > 0) {
      EXPECT_GT(job->combine_merge_input_records, 0) << stage.name;
    }
    if (stage.node_min_maps > 1) {
      EXPECT_GT(job->node_combines, 0) << stage.name;
      EXPECT_LT(job->shuffle_streams, conf.num_maps) << stage.name;
      EXPECT_GT(job->combine_node_input_records, 0) << stage.name;
      EXPECT_GT(job->shuffle_savings_ratio, 0.0) << stage.name;
    }
  }
  // Every stage strictly shrinks what the shuffle serves.
  for (size_t i = 1; i < served.size(); ++i) {
    EXPECT_LT(served[i], served[i - 1]) << stages[i].name;
  }
}

// ---- Matrix: codec x spill x transport x threads ---------------------

TEST(CombinerMatrixTest, FingerprintInvariantAcrossDataPlaneVariants) {
  const uint32_t golden = GoldenFingerprint();
  const MapOutputCodec codecs[] = {MapOutputCodec::kNone, MapOutputCodec::kLz4,
                                   MapOutputCodec::kDeflate};
  for (MapOutputCodec codec : codecs) {
    for (bool disk_spill : {false, true}) {
      for (bool tcp : {false, true}) {
        for (int threads : {1, 4}) {
          JobConf conf = CombineAll(AggJob());
          conf.map_output_codec = codec;
          if (disk_spill) conf.spill_budget_bytes = 0;
          conf.shuffle_transport =
              tcp ? ShuffleTransport::kTcp : ShuffleTransport::kInproc;
          conf.local_threads = threads;
          const std::string label =
              std::string(MapOutputCodecName(codec)) +
              (disk_spill ? "/disk" : "/ram") + (tcp ? "/tcp" : "/inproc") +
              "/t" + std::to_string(threads);
          auto job = RunSumJob(conf);
          ASSERT_TRUE(job.ok()) << label << ": " << job.status().ToString();
          EXPECT_EQ(job->output_fingerprint, golden) << label;
          EXPECT_GT(job->combine_removed_records, 0) << label;
          EXPECT_GT(job->node_combines, 0) << label;
          EXPECT_LT(job->shuffle_streams, conf.num_maps) << label;
          EXPECT_LT(job->shuffle_serve_bytes, job->map_output_wire_bytes)
              << label;
        }
      }
    }
  }
}

// ---- CombineSortedRun algebra ----------------------------------------

std::string SerializeLong(int64_t value) {
  BufferWriter writer;
  LongWritable(value).Serialize(&writer);
  return std::string(writer.data());
}

int64_t ParseLong(std::string_view bytes) {
  BufferReader reader(bytes);
  LongWritable value;
  EXPECT_TRUE(value.Deserialize(&reader).ok());
  return value.value();
}

struct ParsedRecord {
  std::string key;
  std::string value;
};

// Walks IFile framing: vint key length, vint value length, key, value.
std::vector<ParsedRecord> ParseFrames(std::string_view data) {
  std::vector<ParsedRecord> records;
  size_t pos = 0;
  while (pos < data.size()) {
    int64_t key_len = 0, value_len = 0;
    size_t used = 0;
    if (!DecodeVarint64(data.substr(pos), &key_len, &used).ok()) break;
    pos += used;
    if (!DecodeVarint64(data.substr(pos), &value_len, &used).ok()) break;
    pos += used;
    if (pos + static_cast<size_t>(key_len + value_len) > data.size()) break;
    ParsedRecord record;
    record.key = std::string(data.substr(pos, key_len));
    record.value = std::string(data.substr(pos + key_len, value_len));
    records.push_back(std::move(record));
    pos += static_cast<size_t>(key_len + value_len);
  }
  EXPECT_EQ(pos, data.size()) << "trailing malformed frame bytes";
  return records;
}

TEST(CombineSortedRunTest, SortedSealedAndSumsExact) {
  const int kPartitions = 4;  // partition 3 stays empty on purpose
  JobConf conf = AggJob();
  conf.num_reduces = kPartitions;
  KvBuffer buffer(DataType::kLongWritable, kPartitions, 1 << 20);
  std::mt19937_64 rng(0xC0B1);
  // partition -> key -> brute-force sum of values.
  std::map<int, std::map<int64_t, int64_t>> expected;
  for (int i = 0; i < 5000; ++i) {
    const int64_t key = static_cast<int64_t>(rng() % 9);
    const int64_t value =
        static_cast<int64_t>(rng() % 20001) - 10000;  // negatives too
    const int partition = static_cast<int>(key % 3);  // 3 never used
    expected[partition][key] += value;
    ASSERT_TRUE(
        buffer.Append(partition, SerializeLong(key), SerializeLong(value)));
  }
  buffer.Sort();
  SpillSegment segment = buffer.ToSpill();
  SealSegment(&segment);

  SummingReducer combiner;
  SpillSegment combined = CombineSegment(
      buffer, ComparatorFor(DataType::kLongWritable), &combiner, conf, 0);

  // The combined segment is sealed and every partition CRC verifies.
  EXPECT_TRUE(combined.sealed);
  EXPECT_TRUE(VerifySegment(combined).ok());
  ASSERT_EQ(combined.partitions.size(), static_cast<size_t>(kPartitions));

  for (int p = 0; p < kPartitions; ++p) {
    const auto records = ParseFrames(combined.PartitionData(p));
    ASSERT_EQ(records.size(), expected[p].size()) << "partition " << p;
    const RawComparator* cmp = ComparatorFor(DataType::kLongWritable);
    for (size_t i = 0; i < records.size(); ++i) {
      if (i > 0) {
        // One record per key group, strictly ascending.
        EXPECT_LT(cmp->Compare(records[i - 1].key, records[i].key), 0);
      }
      const int64_t key = ParseLong(records[i].key);
      ASSERT_TRUE(expected[p].count(key)) << "partition " << p;
      EXPECT_EQ(ParseLong(records[i].value), expected[p][key])
          << "partition " << p << " key " << key;
    }
  }

  // The kernel underneath agrees with the segment-level pass.
  for (int p = 0; p < kPartitions; ++p) {
    SummingReducer again;
    std::string run;
    auto records = CombineSortedRun({segment.PartitionData(p)},
                                    ComparatorFor(DataType::kLongWritable),
                                    &again, conf, 0, &run);
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    EXPECT_EQ(*records, static_cast<int64_t>(expected[p].size()));
    EXPECT_EQ(run, std::string(combined.PartitionData(p)));
  }
}

TEST(CombineSortedRunTest, SumDiesOnValueShorterThanALong) {
  KvBuffer buffer(DataType::kLongWritable, 1, 1 << 10);
  ASSERT_TRUE(buffer.Append(0, SerializeLong(1), "abcd"));
  buffer.Sort();
  const SpillSegment spill = buffer.ToSpill();
  SummingReducer combiner;
  EXPECT_DEATH(
      {
        std::string run;
        (void)CombineSortedRun({spill.PartitionData(0)},
                               ComparatorFor(DataType::kLongWritable),
                               &combiner, AggJob(), 0, &run);
      },
      "");
}

// ---- Recovery: the combined stream rebuilds, output never moves ------

TEST(CombinerFaultTest, CorruptMemberInvalidatesStreamAndRebuilds) {
  JobConf conf = WithPlan(CombineAll(AggJob()), "corrupt_map:1@a=0,p=0");
  auto job = RunSumJob(conf);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  // The damage was caught (node-combine build or fetch-time CRC), blamed on
  // map 1, and the map re-ran; the rebuilt stream serves clean bytes.
  EXPECT_GT(job->corruptions_detected, 0);
  EXPECT_GT(job->map_attempts, conf.num_maps);
  EXPECT_GT(job->node_combines, 0);
  EXPECT_EQ(job->output_fingerprint, GoldenFingerprint());
}

TEST(CombinerFaultTest, TcpConnectionDropRefetchesCombinedStream) {
  JobConf conf = WithPlan(CombineAll(AggJob()), "drop_conn:0@a=0");
  conf.shuffle_transport = ShuffleTransport::kTcp;
  auto job = RunSumJob(conf);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  EXPECT_GT(job->transport_retransmits, 0);
  EXPECT_GT(job->node_combines, 0);
  EXPECT_EQ(job->output_fingerprint, GoldenFingerprint());
}

class CombinerResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/mrmb-combiner-test-XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  std::string dir_;
};

TEST_F(CombinerResumeTest, CrashedJobResumesWithCombiningIntact) {
  JobConf crash = WithPlan(CombineAll(AggJob()), "crash_at:map_commit@1");
  crash.spill_dir = dir_;
  crash.job_journal = true;
  auto crashed = RunSumJob(crash);
  ASSERT_FALSE(crashed.ok()) << "crash point never fired";
  EXPECT_EQ(crashed.status().code(), StatusCode::kAborted)
      << crashed.status().ToString();

  JobConf resume = CombineAll(AggJob());
  resume.spill_dir = dir_;
  resume.resume = true;
  auto resumed = RunSumJob(resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->resumed);
  EXPECT_GT(resumed->maps_adopted, 0);
  // Adopted maps carry their journaled combiner accounting, so the resumed
  // job still reports the full per-spill pass.
  EXPECT_GT(resumed->combine_spill_input_records, 0);
  EXPECT_GT(resumed->node_combines, 0);
  EXPECT_EQ(resumed->output_fingerprint, GoldenFingerprint());
}

}  // namespace
}  // namespace mrmb

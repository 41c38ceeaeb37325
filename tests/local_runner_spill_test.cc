// End-to-end tests for the disk spill engine under the local runner: a job
// whose spill budget is far below its map output must commit byte-identical
// output to the in-memory engine (golden CRC32C fingerprints), and every
// injected I/O fault — bit flips, torn writes, short reads, EIO, ENOSPC —
// must end in recovery (repair, degradation, or map re-execution), never a
// failed job.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "common/rng.h"
#include "io/byte_buffer.h"
#include "io/checksum.h"
#include "mapred/fault_injector.h"
#include "mapred/local_runner.h"
#include "mapred/null_formats.h"

namespace mrmb {
namespace {

// ---- Deterministic job material (mirrors sort_determinism_test.cc so the
// byte streams are directly comparable across engines) ---------------------

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

class GoldenMapper final : public Mapper {
 public:
  explicit GoldenMapper(int task_id) : task_id_(task_id) {}

  void Map(std::string_view, std::string_view, MapContext* context) override {
    Rng rng(0xC0FFEE + static_cast<uint64_t>(task_id_) * 131);
    for (int i = 0; i < 5000; ++i) {
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

// The job every test runs: 4 maps emitting ~130 KB each through a 64 KB
// sort buffer, so maps multi-spill and (with a zero budget) every sealed
// spill plus the final outputs land on disk.
JobConf BaseConf() {
  JobConf conf;
  conf.num_maps = 4;
  conf.num_reduces = 3;
  conf.record.type = DataType::kText;
  conf.io_sort_bytes = 64 * 1024;
  conf.spill_percent = 1.0;
  conf.local_threads = 2;
  conf.sort_threads = 1;
  conf.seed = 42;
  return conf;
}

JobConf SpillConf() {
  JobConf conf = BaseConf();
  conf.spill_budget_bytes = 0;  // no RAM residency: everything spills
  return conf;
}

JobConf WithPlan(JobConf conf, const std::string& spec) {
  auto plan = LocalFaultPlan::Parse(spec);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  conf.local_fault_plan = *plan;
  return conf;
}

struct JobOutcome {
  uint32_t fingerprint = 0;
  LocalJobResult result;
};

JobOutcome RunGoldenJob(const JobConf& conf) {
  LocalJobRunner runner(conf);
  NullInputFormat input;
  CapturingOutputFormat output;
  auto result = runner.Run(
      &input, [](int task) { return std::make_unique<GoldenMapper>(task); },
      [](int) { return std::make_unique<FingerprintReducer>(); }, &output);
  JobOutcome outcome;
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok()) outcome.result = *result;
  outcome.fingerprint = output.Fingerprint();
  return outcome;
}

uint32_t InMemoryFingerprint() {
  static const uint32_t fingerprint = [] {
    const JobOutcome outcome = RunGoldenJob(BaseConf());
    EXPECT_FALSE(outcome.result.spill_engine_enabled);
    return outcome.fingerprint;
  }();
  return fingerprint;
}

// ---- Byte identity: disk-backed output == in-memory output ---------------

TEST(LocalRunnerSpillTest, SpilledJobMatchesInMemoryFingerprint) {
  const JobOutcome spilled = RunGoldenJob(SpillConf());
  EXPECT_EQ(spilled.fingerprint, InMemoryFingerprint());
  EXPECT_TRUE(spilled.result.spill_engine_enabled);
  EXPECT_GT(spilled.result.spilled_bytes, 0);
  EXPECT_GE(spilled.result.spill_extents, 4);  // at least one per map
  EXPECT_EQ(spilled.result.spill_blocks_lost, 0);
  EXPECT_EQ(spilled.result.map_retries, 0);
}

TEST(LocalRunnerSpillTest, LoneSpillMapsWriteOneExtentEach) {
  // A sort buffer that holds a whole map's output: each map spills once,
  // at its final flush. That spill is the map's output, so it is
  // compressed once and written once — no spill extent beside the final
  // one, and no bytes beyond the wire bytes and per-block framing.
  JobConf conf = SpillConf();
  conf.map_output_codec = MapOutputCodec::kLz4;
  conf.io_sort_bytes = 1 << 20;
  const JobOutcome outcome = RunGoldenJob(conf);
  EXPECT_EQ(outcome.fingerprint, InMemoryFingerprint());
  EXPECT_EQ(outcome.result.spill_count, conf.num_maps);
  EXPECT_EQ(outcome.result.spill_extents, conf.num_maps);
  EXPECT_GT(outcome.result.spilled_bytes, 0);
  EXPECT_LE(static_cast<double>(outcome.result.spilled_bytes),
            1.01 * static_cast<double>(outcome.result.map_output_wire_bytes));
  EXPECT_EQ(outcome.result.spill_blocks_lost, 0);
}

TEST(LocalRunnerSpillTest, FingerprintStableAcrossCodecsAndMmap) {
  for (MapOutputCodec codec : {MapOutputCodec::kNone, MapOutputCodec::kLz4,
                               MapOutputCodec::kDeflate}) {
    for (bool mmap : {false, true}) {
      JobConf conf = SpillConf();
      conf.map_output_codec = codec;
      conf.spill_mmap = mmap;
      const JobOutcome outcome = RunGoldenJob(conf);
      EXPECT_EQ(outcome.fingerprint, InMemoryFingerprint())
          << "codec=" << MapOutputCodecName(codec) << " mmap=" << mmap;
    }
  }
}

TEST(LocalRunnerSpillTest, FingerprintStableAcrossThreadCounts) {
  for (int threads : {1, 8}) {
    JobConf conf = SpillConf();
    conf.local_threads = threads;
    EXPECT_EQ(RunGoldenJob(conf).fingerprint, InMemoryFingerprint())
        << "local_threads=" << threads;
  }
}

TEST(LocalRunnerSpillTest, SmallBlocksCacheAndScrubKeepBytesIdentical) {
  JobConf conf = SpillConf();
  conf.spill_block_bytes = 8 * 1024;  // many blocks per extent
  conf.spill_cache_bytes = 1 << 20;
  conf.spill_scrub = true;
  const JobOutcome outcome = RunGoldenJob(conf);
  EXPECT_EQ(outcome.fingerprint, InMemoryFingerprint());
  EXPECT_GT(outcome.result.spill_scrubbed_blocks, 0);
  // Scrub warms the cache, so fetches hit.
  EXPECT_GT(outcome.result.spill_cache_hits, 0);
  EXPECT_GE(outcome.result.spill_cache_hit_rate, 0.0);
  EXPECT_LE(outcome.result.spill_cache_hit_rate, 1.0);
}

TEST(LocalRunnerSpillTest, CacheCountersMoveWhenCacheEnabled) {
  JobConf conf = SpillConf();
  conf.spill_cache_bytes = 8 << 20;
  const JobOutcome outcome = RunGoldenJob(conf);
  EXPECT_EQ(outcome.fingerprint, InMemoryFingerprint());
  EXPECT_GT(outcome.result.spill_cache_hits + outcome.result.spill_cache_misses,
            0);

  conf.spill_cache_bytes = 0;  // cache off: no counters move
  const JobOutcome uncached = RunGoldenJob(conf);
  EXPECT_EQ(uncached.fingerprint, InMemoryFingerprint());
  EXPECT_EQ(uncached.result.spill_cache_hits, 0);
  EXPECT_EQ(uncached.result.spill_cache_misses, 0);
}

// ---- Fault survival: every injected I/O fault ends in recovery -----------

TEST(LocalRunnerSpillTest, SingleBitBlockCorruptionIsRepairedInPlace) {
  const JobConf conf =
      WithPlan(SpillConf(), "corrupt_block:2@a=0,b=0");
  const JobOutcome outcome = RunGoldenJob(conf);
  EXPECT_EQ(outcome.fingerprint, InMemoryFingerprint());
  EXPECT_GE(outcome.result.spill_blocks_repaired, 1);
  EXPECT_EQ(outcome.result.spill_blocks_lost, 0);
}

TEST(LocalRunnerSpillTest, MultiBitBlockCorruptionRecoversByReExecution) {
  const JobConf conf =
      WithPlan(SpillConf(), "corrupt_block:2@a=0,b=0,n=3");
  const JobOutcome outcome = RunGoldenJob(conf);
  EXPECT_EQ(outcome.fingerprint, InMemoryFingerprint());
  EXPECT_GE(outcome.result.spill_blocks_lost, 1);
  EXPECT_GE(outcome.result.map_retries, 1);  // clean attempt 1 re-ran
}

TEST(LocalRunnerSpillTest, TornWriteRecoversByReExecution) {
  const JobConf conf = WithPlan(SpillConf(), "torn_write:1@a=0");
  const JobOutcome outcome = RunGoldenJob(conf);
  EXPECT_EQ(outcome.fingerprint, InMemoryFingerprint());
  EXPECT_GE(outcome.result.spill_blocks_lost, 1);
  EXPECT_GE(outcome.result.map_retries, 1);
}

TEST(LocalRunnerSpillTest, ScrubAfterSealCatchesDamageBeforeCommit) {
  // With write-time scrubbing the torn extent fails Put, so the attempt —
  // not a later fetch — retries; single-bit damage is healed silently.
  JobConf torn = WithPlan(SpillConf(), "torn_write:1@a=0");
  torn.spill_scrub = true;
  const JobOutcome outcome = RunGoldenJob(torn);
  EXPECT_EQ(outcome.fingerprint, InMemoryFingerprint());
  EXPECT_GE(outcome.result.map_retries, 1);

  JobConf flipped = WithPlan(SpillConf(), "corrupt_block:0@a=0,b=0");
  flipped.spill_scrub = true;
  const JobOutcome healed = RunGoldenJob(flipped);
  EXPECT_EQ(healed.fingerprint, InMemoryFingerprint());
  EXPECT_GE(healed.result.spill_blocks_repaired, 1);
  EXPECT_EQ(healed.result.map_retries, 0);
}

TEST(LocalRunnerSpillTest, ShortReadsAreCompletedTransparently) {
  const JobConf conf = WithPlan(SpillConf(), "short_read:0.5");
  const JobOutcome outcome = RunGoldenJob(conf);
  EXPECT_EQ(outcome.fingerprint, InMemoryFingerprint());
  EXPECT_GT(outcome.result.spill_short_reads, 0);
  EXPECT_EQ(outcome.result.spill_blocks_lost, 0);
}

TEST(LocalRunnerSpillTest, TransientEioIsAbsorbedByRetriesOrReExecution) {
  const JobConf conf = WithPlan(SpillConf(), "eio_prob:0.3");
  const JobOutcome outcome = RunGoldenJob(conf);
  EXPECT_EQ(outcome.fingerprint, InMemoryFingerprint());
  EXPECT_GT(outcome.result.spill_read_errors, 0);
}

TEST(LocalRunnerSpillTest, EnospcDegradesToRamResidency) {
  // The device "fills" after 64 KB: early extents land on disk, later
  // writes fail with ENOSPC and their attempts keep output resident in RAM.
  const JobConf conf = WithPlan(SpillConf(), "enospc_after_bytes:65536");
  const JobOutcome outcome = RunGoldenJob(conf);
  EXPECT_EQ(outcome.fingerprint, InMemoryFingerprint());
  EXPECT_GT(outcome.result.spill_degradations, 0);
  EXPECT_EQ(outcome.result.spill_blocks_lost, 0);
}

TEST(LocalRunnerSpillTest, CombinedFaultStormStillCommitsGoldenBytes) {
  const JobConf conf = WithPlan(
      SpillConf(),
      "corrupt_block:0@a=0,b=0;corrupt_block:3@a=0,b=0,n=3;torn_write:1@a=0;"
      "short_read:0.2;eio_prob:0.1");
  const JobOutcome outcome = RunGoldenJob(conf);
  EXPECT_EQ(outcome.fingerprint, InMemoryFingerprint());
  EXPECT_GE(outcome.result.spill_blocks_repaired, 1);
  EXPECT_GE(outcome.result.spill_blocks_lost, 1);
  EXPECT_GE(outcome.result.map_retries, 1);
}

}  // namespace
}  // namespace mrmb

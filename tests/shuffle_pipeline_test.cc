// Pipelined-shuffle scheduler tests: slow-start gating, the once-per-
// generation CRC verify cache, bounded-fan-in background merges, phase
// accounting, and generation-based invalidation of already-fetched
// segments when a map re-executes mid-shuffle.

#include <gtest/gtest.h>

#include "mapred/fault_injector.h"
#include "mapred/local_runner.h"
#include "order_digest.h"

namespace mrmb {
namespace {

JobConf SmallConf(int maps = 4, int reduces = 4, int64_t records = 50) {
  JobConf conf;
  conf.num_maps = maps;
  conf.num_reduces = reduces;
  conf.records_per_map = records;
  conf.pattern = DistributionPattern::kAverage;
  conf.record.key_size = 16;
  conf.record.value_size = 32;
  conf.record.num_unique_keys = reduces;
  conf.seed = 42;
  return conf;
}

JobConf WithPlan(JobConf conf, const std::string& spec) {
  auto plan = LocalFaultPlan::Parse(spec);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  conf.local_fault_plan = *plan;
  return conf;
}

TEST(ShufflePipelineTest, CleanRunVerifiesEachPartitionOncePerGeneration) {
  auto result = LocalJobRunner::RunStandalone(SmallConf());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // 4 maps x 4 reduces, one committed generation each: exactly 16 CRC
  // checks, no matter how fetches interleave.
  EXPECT_EQ(result->crc_verifications, 16);
  EXPECT_EQ(result->stale_fetches_invalidated, 0);
}

TEST(ShufflePipelineTest, ReduceRetriesDoNotReverify) {
  // The old engine re-verified all of reduce 1's inputs on its retry; the
  // verify cache makes the count independent of reduce attempts.
  const JobConf conf = WithPlan(SmallConf(), "fail_reduce:1@a=0");
  auto result = LocalJobRunner::RunStandalone(conf);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->reduce_retries, 1);
  EXPECT_EQ(result->crc_verifications, 16);
}

TEST(ShufflePipelineTest, ChecksumOffSkipsVerification) {
  JobConf conf = SmallConf();
  conf.checksum_map_output = false;
  auto result = LocalJobRunner::RunStandalone(conf);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->crc_verifications, 0);
}

TEST(ShufflePipelineTest, MergeFactorBoundsFanInDeterministically) {
  // 9 maps, factor 3: the static plan folds three triples per reduce, so a
  // clean run performs exactly reduces x 3 background merges.
  JobConf conf = SmallConf(/*maps=*/9, /*reduces=*/2);
  conf.merge_factor = 3;
  auto result = LocalJobRunner::RunStandalone(conf);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->intermediate_merges, 2 * 3);

  // A factor wider than the map count needs no folding at all.
  conf.merge_factor = 16;
  auto flat = LocalJobRunner::RunStandalone(conf);
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  EXPECT_EQ(flat->intermediate_merges, 0);

  // Counters unrelated to the fold plan must not change with it.
  EXPECT_EQ(result->reducer_input_records, flat->reducer_input_records);
  EXPECT_EQ(result->reduce_groups, flat->reduce_groups);
  EXPECT_EQ(result->output_records, flat->output_records);
  EXPECT_EQ(result->output_bytes, flat->output_bytes);
}

TEST(ShufflePipelineTest, FullBarrierSlowstartNeverOverlaps) {
  // Also with a modelled transfer: its sleeps start after the last commit.
  for (const int latency_ms : {0, 2}) {
    JobConf conf = SmallConf();
    conf.reduce_slowstart = 1.0;  // reducers wait for the last map commit
    conf.local_threads = 4;
    conf.fetch_latency_ms = latency_ms;
    auto result = LocalJobRunner::RunStandalone(conf);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->overlap_efficiency, 0.0) << "latency " << latency_ms;
    EXPECT_GT(result->map_phase_seconds, 0.0);
    EXPECT_GE(result->shuffle_wait_seconds, 0.0);
  }
}

TEST(ShufflePipelineTest, ModelledTransferInsideTheMapPhaseOverlaps) {
  // Map 0 commits at once while map 1 is held for 100 ms. Reduce 0's fetch
  // of map 0's output sleeps its 200 ms modelled transfer from before map
  // 1 commits until after, so every verify, fold and final merge starts
  // after the map phase; only the transfer overlaps it.
  JobConf conf = WithPlan(SmallConf(/*maps=*/2, /*reduces=*/2),
                          "delay_map:1@a=0,ms=100");
  conf.local_threads = 2;
  conf.reduce_slowstart = 0.0;
  conf.fetch_latency_ms = 200;
  auto result = LocalJobRunner::RunStandalone(conf);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->overlap_efficiency, 0.0);
  EXPECT_LT(result->overlap_efficiency, 1.0);
  // The 800 ms of transfer are slept, not merge work.
  EXPECT_LT(result->shuffle_merge_seconds, 0.2);
}

TEST(ShufflePipelineTest, PhaseBreakdownIsPopulated) {
  JobConf conf = SmallConf(/*maps=*/4, /*reduces=*/2, /*records=*/500);
  conf.local_threads = 2;
  conf.reduce_slowstart = 0.0;
  auto result = LocalJobRunner::RunStandalone(conf);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->map_phase_seconds, 0.0);
  EXPECT_GT(result->shuffle_merge_seconds, 0.0);
  EXPECT_GT(result->reduce_compute_seconds, 0.0);
  EXPECT_GE(result->overlap_efficiency, 0.0);
  EXPECT_LE(result->overlap_efficiency, 1.0);
  EXPECT_LE(result->map_phase_seconds, result->wall_seconds);
}

TEST(ShufflePipelineTest, SlowstartSweepKeepsDataPlaneIdentical) {
  auto baseline = LocalJobRunner::RunStandalone(SmallConf());
  ASSERT_TRUE(baseline.ok());
  for (double slowstart : {0.0, 0.5, 1.0}) {
    for (int threads : {1, 4}) {
      JobConf conf = SmallConf();
      conf.reduce_slowstart = slowstart;
      conf.local_threads = threads;
      auto result = LocalJobRunner::RunStandalone(conf);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->reducer_input_records,
                baseline->reducer_input_records)
          << "slowstart=" << slowstart << " threads=" << threads;
      EXPECT_EQ(result->reduce_groups, baseline->reduce_groups);
      EXPECT_EQ(result->output_records, baseline->output_records);
      EXPECT_EQ(result->output_bytes, baseline->output_bytes);
    }
  }
}

TEST(ShufflePipelineTest, FetchLatencyIsWallClockOnly) {
  auto baseline = LocalJobRunner::RunStandalone(SmallConf());
  ASSERT_TRUE(baseline.ok());
  JobConf conf = SmallConf();
  conf.fetch_latency_ms = 2;
  conf.local_threads = 4;
  auto result = LocalJobRunner::RunStandalone(conf);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->reducer_input_records, baseline->reducer_input_records);
  EXPECT_EQ(result->reduce_groups, baseline->reduce_groups);
  EXPECT_EQ(result->output_records, baseline->output_records);
  EXPECT_EQ(result->output_bytes, baseline->output_bytes);
  EXPECT_EQ(result->crc_verifications, 16);
}

TEST(ShufflePipelineTest, MapReexecutionInvalidatesAlreadyFetchedSegments) {
  // Two maps, two reduces, two workers. Map 1 stalls 800 ms, so worker 0
  // alone runs the whole recovery dance in a deterministic order:
  //
  //   1. map 0 commits (partition 1 carries a flipped bit);
  //   2. reduce 0's drain fetches map 0's partition 0 — clean, stored;
  //   3. reduce 1's drain catches the CRC mismatch on partition 1, map 0
  //      re-executes inline and commits generation 1;
  //   4. reduce 0's re-drain replaces its already-fetched generation-0
  //      segment — exactly one stale fetch invalidated;
  //   5. reduce 1 fetches generation 1 directly (its generation-0 fetch
  //      never passed verification, so nothing to invalidate there).
  JobConf conf = WithPlan(SmallConf(/*maps=*/2, /*reduces=*/2),
                          "corrupt_map:0@a=0,p=1;delay_map:1@a=0,ms=800");
  conf.local_threads = 2;
  auto result = LocalJobRunner::RunStandalone(conf);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->corruptions_detected, 1);
  EXPECT_EQ(result->map_attempts, 3);  // 2 + re-execution of map 0
  EXPECT_EQ(result->map_retries, 1);
  EXPECT_EQ(result->stale_fetches_invalidated, 1);
  // The corruption was caught at fetch time, before either final task ran.
  EXPECT_EQ(result->reduce_attempts, 2);
  EXPECT_EQ(result->reduce_retries, 0);

  // The data plane must land exactly on the fault-free run's numbers.
  auto clean = LocalJobRunner::RunStandalone(SmallConf(2, 2));
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(result->reducer_input_records, clean->reducer_input_records);
  EXPECT_EQ(result->reducer_input_bytes, clean->reducer_input_bytes);
  EXPECT_EQ(result->reduce_groups, clean->reduce_groups);
  EXPECT_EQ(result->output_records, clean->output_records);
  EXPECT_EQ(result->output_bytes, clean->output_bytes);
}

// With verification off, the flipped bit reaches the final merge, where
// frame/key decoding fails; the reduce blames the producer, re-fetches its
// inputs (RefreshInputs), and the repair is invisible in the output. Not
// every bit position is detectable without checksums (a flip inside a
// value payload leaves framing intact), so the seed is pinned to one whose
// injected flip lands where SegmentReader's structural validation catches
// it. The faulty run's result lands in `*faulty`.
void ExpectChecksumOffCorruptionRepaired(ShuffleTransport transport,
                                         LocalJobResult* faulty) {
  JobConf clean_conf = SmallConf();
  clean_conf.checksum_map_output = false;
  clean_conf.seed = 7;
  clean_conf.shuffle_transport = transport;
  JobConf conf = WithPlan(clean_conf, "corrupt_map:2@a=0,p=1");
  auto result = LocalJobRunner::RunStandalone(conf);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->corruptions_detected, 1);
  EXPECT_GE(result->map_retries, 1);
  EXPECT_EQ(result->crc_verifications, 0);

  auto clean = LocalJobRunner::RunStandalone(clean_conf);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(result->reducer_input_records, clean->reducer_input_records);
  EXPECT_EQ(result->reduce_groups, clean->reduce_groups);
  EXPECT_EQ(result->output_records, clean->output_records);
  EXPECT_EQ(result->output_bytes, clean->output_bytes);
  EXPECT_EQ(result->output_fingerprint, clean->output_fingerprint);
  *faulty = *result;
}

TEST(ShufflePipelineTest, ChecksumOffCorruptionCaughtMidMergeAndRepaired) {
  LocalJobResult faulty;
  ExpectChecksumOffCorruptionRepaired(ShuffleTransport::kInproc, &faulty);
}

// The same repair when the refresh re-fetches over the socket transport:
// the caught corruption costs a reduce retry, and the refreshed partition
// crosses the wire on top of the clean run's 16.
TEST(ShufflePipelineTest,
     ChecksumOffCorruptionCaughtMidMergeAndRepairedOverTcp) {
  LocalJobResult faulty;
  ExpectChecksumOffCorruptionRepaired(ShuffleTransport::kTcp, &faulty);
  EXPECT_GE(faulty.reduce_retries, 1);
  EXPECT_GT(faulty.transport_fetched_partitions, 16);
}

// ---- Shuffle data plane: codecs and the bandwidth model -----------------

TEST(ShufflePipelineTest, CodecsKeepTheDataPlaneIdentical) {
  auto baseline = LocalJobRunner::RunStandalone(SmallConf());
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline->map_output_wire_bytes, baseline->map_output_bytes);
  EXPECT_DOUBLE_EQ(baseline->map_output_compression_ratio, 1.0);
  for (MapOutputCodec codec :
       {MapOutputCodec::kLz4, MapOutputCodec::kDeflate}) {
    for (int threads : {1, 4}) {
      JobConf conf = SmallConf();
      conf.map_output_codec = codec;
      conf.local_threads = threads;
      auto result = LocalJobRunner::RunStandalone(conf);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      // Logical counters are codec-invariant...
      EXPECT_EQ(result->map_output_bytes, baseline->map_output_bytes);
      EXPECT_EQ(result->reducer_input_records,
                baseline->reducer_input_records);
      EXPECT_EQ(result->reducer_input_bytes, baseline->reducer_input_bytes);
      EXPECT_EQ(result->reduce_groups, baseline->reduce_groups);
      EXPECT_EQ(result->output_records, baseline->output_records);
      EXPECT_EQ(result->output_bytes, baseline->output_bytes);
      // ...while the wire side reports real compression (repeated keys in
      // sorted runs always shrink).
      EXPECT_LT(result->map_output_wire_bytes, result->map_output_bytes)
          << MapOutputCodecName(codec);
      EXPECT_LT(result->map_output_compression_ratio, 1.0);
      EXPECT_GT(result->map_output_compression_ratio, 0.0);
      // The verify cache semantics are unchanged: one CRC per (map,
      // partition) generation, now over compressed frames.
      EXPECT_EQ(result->crc_verifications, 16);
    }
  }
}

TEST(ShufflePipelineTest, BandwidthModelIsWallClockOnly) {
  auto baseline = LocalJobRunner::RunStandalone(SmallConf());
  ASSERT_TRUE(baseline.ok());
  JobConf conf = SmallConf();
  conf.fetch_bandwidth_mbps = 64;  // every fetch now costs bytes / bw
  conf.local_threads = 4;
  auto result = LocalJobRunner::RunStandalone(conf);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->reducer_input_records, baseline->reducer_input_records);
  EXPECT_EQ(result->reducer_input_bytes, baseline->reducer_input_bytes);
  EXPECT_EQ(result->output_records, baseline->output_records);
  EXPECT_EQ(result->output_bytes, baseline->output_bytes);
  EXPECT_EQ(result->crc_verifications, 16);
}

TEST(ShufflePipelineTest, CorruptionOnTheWireIsCaughtUnderACodec) {
  // The injector flips a bit in the *compressed* frame; the partition CRC
  // (computed over wire bytes) catches it at fetch time and the map
  // re-executes, exactly as in the uncompressed path.
  JobConf conf = WithPlan(SmallConf(), "corrupt_map:2@a=0,p=1");
  conf.map_output_codec = MapOutputCodec::kLz4;
  auto result = LocalJobRunner::RunStandalone(conf);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->corruptions_detected, 1);
  EXPECT_EQ(result->map_retries, 1);

  JobConf clean_conf = SmallConf();
  clean_conf.map_output_codec = MapOutputCodec::kLz4;
  auto clean = LocalJobRunner::RunStandalone(clean_conf);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(result->reducer_input_records, clean->reducer_input_records);
  EXPECT_EQ(result->reduce_groups, clean->reduce_groups);
  EXPECT_EQ(result->output_records, clean->output_records);
  EXPECT_EQ(result->output_bytes, clean->output_bytes);
}

TEST(ShufflePipelineTest, FrameChecksumCatchesCorruptionWithVerifyOff) {
  // With segment CRC verification off, the codec frame's own checksum is
  // the backstop: the flipped bit fails BlockDecompress at fetch time, the
  // fetch counts as lost output, and the producer re-executes. Unlike the
  // uncompressed checksum-off case, *every* bit position is detectable —
  // the frame CRC covers the whole payload.
  JobConf conf = WithPlan(SmallConf(), "corrupt_map:2@a=0,p=1");
  conf.checksum_map_output = false;
  conf.map_output_codec = MapOutputCodec::kLz4;
  auto result = LocalJobRunner::RunStandalone(conf);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->corruptions_detected, 1);
  EXPECT_GE(result->map_retries, 1);
  EXPECT_EQ(result->crc_verifications, 0);

  JobConf clean_conf = SmallConf();
  clean_conf.checksum_map_output = false;
  clean_conf.map_output_codec = MapOutputCodec::kLz4;
  auto clean = LocalJobRunner::RunStandalone(clean_conf);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(result->reducer_input_records, clean->reducer_input_records);
  EXPECT_EQ(result->reduce_groups, clean->reduce_groups);
  EXPECT_EQ(result->output_records, clean->output_records);
  EXPECT_EQ(result->output_bytes, clean->output_bytes);
}

// Corruption repair composes with background folding: the re-fetched
// generation must dirty the folds that consumed the stale bytes before
// those bytes are replaced. The order-sensitive digest must land exactly on
// the clean run's, value order within each group included. Behind a full
// map barrier the other reduce has nearly always fetched and folded map 3's
// first generation by the time the re-executed output commits, so its
// folds hold slices of bytes about to be freed (ASan sees any that
// survive); how often depends on timing, so it is not asserted.
void ExpectFaultRecoveryUnderTinyMergeFactor(bool tcp_lz4) {
  JobConf clean_conf = SmallConf(/*maps=*/8, /*reduces=*/2);
  clean_conf.merge_factor = 2;
  if (tcp_lz4) {
    clean_conf.shuffle_transport = ShuffleTransport::kTcp;
    clean_conf.map_output_codec = MapOutputCodec::kLz4;
  }
  JobConf conf = WithPlan(clean_conf,
                          "corrupt_map:3@a=0,p=0;corrupt_map:3@a=1,p=0");
  conf.local_threads = 2;
  conf.reduce_slowstart = 1.0;
  auto result = RunOrderDigestJob(conf);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->corruptions_detected, 2);
  EXPECT_EQ(result->map_retries, 2);

  auto clean = RunOrderDigestJob(clean_conf);
  ASSERT_TRUE(clean.ok());
  EXPECT_GT(clean->intermediate_merges, 0);
  EXPECT_EQ(result->reducer_input_records, clean->reducer_input_records);
  EXPECT_EQ(result->reduce_groups, clean->reduce_groups);
  EXPECT_EQ(result->output_records, clean->output_records);
  EXPECT_EQ(result->output_bytes, clean->output_bytes);
  EXPECT_EQ(result->output_fingerprint, clean->output_fingerprint);
}

TEST(ShufflePipelineTest, FaultRecoveryUnderTinyMergeFactor) {
  ExpectFaultRecoveryUnderTinyMergeFactor(/*tcp_lz4=*/false);
}

TEST(ShufflePipelineTest, FaultRecoveryUnderTinyMergeFactorOverTcpLz4) {
  ExpectFaultRecoveryUnderTinyMergeFactor(/*tcp_lz4=*/true);
}

}  // namespace
}  // namespace mrmb

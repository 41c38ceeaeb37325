#include "mrmb/benchmark.h"

#include <gtest/gtest.h>

#include <sstream>

#include "mrmb/flags.h"
#include "mrmb/report.h"

namespace mrmb {
namespace {

BenchmarkOptions SmallOptions() {
  BenchmarkOptions options;
  options.shuffle_bytes = 256LL * 1024 * 1024;
  options.num_maps = 8;
  options.num_reduces = 4;
  options.num_slaves = 2;
  options.network = TenGigE();
  return options;
}

TEST(BenchmarkOptionsTest, ToJobConfDerivesRecords) {
  const BenchmarkOptions options = SmallOptions();
  const JobConf conf = options.ToJobConf();
  EXPECT_EQ(conf.num_maps, 8);
  EXPECT_EQ(conf.num_reduces, 4);
  EXPECT_EQ(conf.record.num_unique_keys, 4);  // paper: unique keys = reduces
  RecordGenerator generator(conf.record);
  const int64_t total_bytes =
      conf.total_records() *
      static_cast<int64_t>(generator.framed_record_size());
  // Derived records cover the target within one record per map.
  EXPECT_GE(total_bytes, options.shuffle_bytes);
  EXPECT_LE(total_bytes, options.shuffle_bytes +
                             8 * static_cast<int64_t>(
                                     generator.framed_record_size()));
}

TEST(BenchmarkOptionsTest, ExplicitRecordsOverrideShuffleTarget) {
  BenchmarkOptions options = SmallOptions();
  options.records_per_map = 777;
  EXPECT_EQ(options.ToJobConf().records_per_map, 777);
}

TEST(BenchmarkOptionsTest, AutoSlotsCoverOneWave) {
  BenchmarkOptions options = SmallOptions();  // 8 maps / 4 reduces, 2 slaves
  const JobConf conf = options.ToJobConf();
  EXPECT_EQ(conf.map_slots_per_node, 4);
  EXPECT_EQ(conf.reduce_slots_per_node, 2);
  options.map_slots_per_node = 1;
  options.reduce_slots_per_node = 1;
  const JobConf manual = options.ToJobConf();
  EXPECT_EQ(manual.map_slots_per_node, 1);
  EXPECT_EQ(manual.reduce_slots_per_node, 1);
}

TEST(BenchmarkOptionsTest, ClusterSpecSelection) {
  BenchmarkOptions options = SmallOptions();
  options.cluster = ClusterKind::kClusterA;
  EXPECT_EQ(options.ToClusterSpec().node.cores, 8);
  options.cluster = ClusterKind::kClusterB;
  options.num_slaves = 8;
  const ClusterSpec spec = options.ToClusterSpec();
  EXPECT_EQ(spec.node.cores, 16);
  EXPECT_EQ(spec.num_slaves, 8);
}

TEST(RunMicroBenchmarkTest, SmokeRun) {
  auto result = RunMicroBenchmark(SmallOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->job.job_seconds, 0);
  EXPECT_GE(result->job.total_shuffle_bytes,
            SmallOptions().shuffle_bytes);
  EXPECT_TRUE(result->node0_samples.empty());  // monitoring off by default
}

TEST(RunMicroBenchmarkTest, MonitoringCollectsSamples) {
  BenchmarkOptions options = SmallOptions();
  options.collect_resource_stats = true;
  auto result = RunMicroBenchmark(options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->node0_samples.empty());
  EXPECT_GT(result->peak_rx_MBps, 0);
  EXPECT_GT(result->mean_cpu_pct, 0);
}

TEST(RunMicroBenchmarkTest, RejectsBadSlaves) {
  BenchmarkOptions options = SmallOptions();
  options.num_slaves = 0;
  EXPECT_FALSE(RunMicroBenchmark(options).ok());
}

TEST(RunMicroBenchmarkTest, LocalAndSimAgreeOnDistribution) {
  BenchmarkOptions options = SmallOptions();
  options.pattern = DistributionPattern::kSkewed;
  options.records_per_map = 300;
  options.key_size = 16;
  options.value_size = 16;
  auto sim = RunMicroBenchmark(options);
  auto local = RunMicroBenchmarkLocally(options);
  ASSERT_TRUE(sim.ok());
  ASSERT_TRUE(local.ok());
  for (size_t r = 0; r < sim->job.reducer_bytes.size(); ++r) {
    EXPECT_EQ(sim->job.reducer_bytes[r], local->reducer_input_bytes[r]);
  }
}

TEST(ClusterKindTest, Lookup) {
  EXPECT_EQ(*ClusterKindByName("a"), ClusterKind::kClusterA);
  EXPECT_EQ(*ClusterKindByName("ClusterB"), ClusterKind::kClusterB);
  EXPECT_EQ(*ClusterKindByName("stampede"), ClusterKind::kClusterB);
  EXPECT_FALSE(ClusterKindByName("c").ok());
  EXPECT_STREQ(ClusterKindName(ClusterKind::kClusterA), "ClusterA");
}

TEST(ReportTest, PrintBenchmarkReportContainsKeyFields) {
  BenchmarkOptions options = SmallOptions();
  options.collect_resource_stats = true;
  auto result = RunMicroBenchmark(options);
  ASSERT_TRUE(result.ok());
  std::ostringstream out;
  PrintBenchmarkReport(*result, &out);
  const std::string text = out.str();
  EXPECT_NE(text.find("MR-AVG"), std::string::npos);
  EXPECT_NE(text.find("Job execution time"), std::string::npos);
  EXPECT_NE(text.find("10GigE"), std::string::npos);
  EXPECT_NE(text.find("Resource utilization"), std::string::npos);
  EXPECT_NE(text.find("BytesWritable"), std::string::npos);
}

TEST(SweepTableTest, StoresAndPrints) {
  SweepTable table("demo", "Size");
  table.Add("1GigE", "8GB", 100.0);
  table.Add("10GigE", "8GB", 80.0);
  table.Add("1GigE", "16GB", 200.0);
  table.Add("10GigE", "16GB", 170.0);
  EXPECT_DOUBLE_EQ(table.Get("1GigE", "8GB"), 100.0);
  EXPECT_DOUBLE_EQ(table.Get("10GigE", "16GB"), 170.0);
  EXPECT_DOUBLE_EQ(table.Get("missing", "8GB"), -1.0);

  std::ostringstream out;
  table.Print(&out);
  const std::string text = out.str();
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("1GigE"), std::string::npos);
  EXPECT_NE(text.find("100.0"), std::string::npos);

  std::ostringstream csv;
  table.PrintCsv(&csv);
  EXPECT_NE(csv.str().find("Size,1GigE,10GigE"), std::string::npos);
  EXPECT_NE(csv.str().find("8GB,100.000,80.000"), std::string::npos);
}

TEST(SweepTableTest, ImprovementOutput) {
  SweepTable table("demo", "Size");
  table.Add("1GigE", "8GB", 100.0);
  table.Add("IPoIB", "8GB", 76.0);
  std::ostringstream out;
  table.PrintWithImprovement("1GigE", &out);
  EXPECT_NE(out.str().find("24.0%"), std::string::npos);
}

TEST(FlagsTest, ParsesForms) {
  const char* argv[] = {"prog", "--a=1", "--b", "two", "--flag"};
  auto flags = Flags::Parse(5, const_cast<char**>(argv));
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(*flags->GetInt("a", 0), 1);
  EXPECT_EQ(*flags->GetString("b", ""), "two");
  EXPECT_TRUE(*flags->GetBool("flag", false));
  EXPECT_EQ(*flags->GetInt("absent", 9), 9);
  EXPECT_FALSE(flags->help_requested());
}

TEST(FlagsTest, HelpAndErrors) {
  {
    const char* argv[] = {"prog", "--help"};
    auto flags = Flags::Parse(2, const_cast<char**>(argv));
    ASSERT_TRUE(flags.ok());
    EXPECT_TRUE(flags->help_requested());
  }
  {
    const char* argv[] = {"prog", "positional"};
    EXPECT_FALSE(Flags::Parse(2, const_cast<char**>(argv)).ok());
  }
  {
    const char* argv[] = {"prog", "--n=abc"};
    auto flags = Flags::Parse(2, const_cast<char**>(argv));
    ASSERT_TRUE(flags.ok());
    EXPECT_FALSE(flags->GetInt("n", 0).ok());
  }
}

TEST(FlagsTest, CheckAllReadNamesEveryUnreadFlag) {
  const char* argv[] = {"prog", "--maps=2", "--no-such-flag=7", "--typo",
                        "--shuffle=1MB"};
  auto flags = Flags::Parse(5, const_cast<char**>(argv));
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(*flags->GetInt("maps", 0), 2);
  EXPECT_TRUE(flags->Has("shuffle"));  // Has is a read too
  EXPECT_EQ(*flags->GetInt("absent", 3), 3);
  const Status unread = flags->CheckAllRead();
  EXPECT_EQ(unread.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unread.message().find("--no-such-flag"), std::string::npos)
      << unread.ToString();
  EXPECT_NE(unread.message().find("--typo"), std::string::npos)
      << unread.ToString();
  EXPECT_EQ(unread.message().find("--maps"), std::string::npos)
      << unread.ToString();
  EXPECT_EQ(unread.message().find("--shuffle"), std::string::npos)
      << unread.ToString();
  EXPECT_EQ(*flags->GetInt("no-such-flag", 0), 7);
  EXPECT_TRUE(*flags->GetBool("typo", false));
  EXPECT_TRUE(flags->CheckAllRead().ok());
}

TEST(FlagsTest, BytesAndBools) {
  const char* argv[] = {"prog", "--size=8GB", "--on=yes", "--off=0"};
  auto flags = Flags::Parse(4, const_cast<char**>(argv));
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(*flags->GetBytes("size", 0), 8LL << 30);
  EXPECT_TRUE(*flags->GetBool("on", false));
  EXPECT_FALSE(*flags->GetBool("off", true));
  EXPECT_FALSE(flags->GetBool("size", false).ok());  // "8GB" not boolean
}

}  // namespace
}  // namespace mrmb

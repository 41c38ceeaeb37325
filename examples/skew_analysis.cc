// skew_analysis: quantify what a skewed intermediate-data distribution
// costs, and whether a faster network can buy it back.
//
// The paper's MR-SKEW motivates research on skew mitigation: "By determining
// the overhead of running a skewed load, we can determine if it is
// worthwhile to find alternative techniques that can mitigate load
// imbalances" (Sect. 4.2). This example runs all three patterns over two
// interconnects, prints per-reducer loads, the load-imbalance factor, and
// the skew penalty, then contrasts it with what the network upgrade buys.
//
//   ./skew_analysis [--shuffle=16GB] [--reduces=8]

#include <cstdio>
#include <iostream>

#include "mrmb/benchmark.h"
#include "mrmb/flags.h"

int main(int argc, char** argv) {
  using namespace mrmb;
  auto flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok() || flags_or->help_requested()) {
    std::cout << "usage: skew_analysis [--shuffle=16GB] [--reduces=8]\n";
    return flags_or.ok() ? 0 : 2;
  }
  auto shuffle = flags_or->GetBytes("shuffle", 16 * kGB);
  auto reduces = flags_or->GetInt("reduces", 8);
  if (!shuffle.ok() || !reduces.ok()) return 2;
  if (const Status unread = flags_or->CheckAllRead(); !unread.ok()) {
    std::cerr << unread.ToString() << "\n";
    return 2;
  }

  const NetworkProfile slow = OneGigE();
  const NetworkProfile fast = IpoibQdr();

  double avg_seconds[2] = {0, 0};
  for (DistributionPattern pattern :
       {DistributionPattern::kAverage, DistributionPattern::kRandom,
        DistributionPattern::kSkewed}) {
    std::printf("=== %s ===\n", DistributionPatternName(pattern));
    int net_index = 0;
    for (const NetworkProfile& network : {slow, fast}) {
      BenchmarkOptions options;
      options.pattern = pattern;
      options.network = network;
      options.shuffle_bytes = *shuffle;
      options.num_reduces = static_cast<int>(*reduces);
      auto result = RunMicroBenchmark(options);
      if (!result.ok()) {
        std::cerr << result.status().ToString() << "\n";
        return 1;
      }
      const SimJobResult& job = result->job;
      std::printf("  %-20s job %8.2f s   imbalance %.2fx", network.name.c_str(),
                  job.job_seconds, job.load_imbalance);
      if (pattern == DistributionPattern::kAverage) {
        avg_seconds[net_index] = job.job_seconds;
      } else if (avg_seconds[net_index] > 0) {
        std::printf("   (%.2fx the MR-AVG time)",
                    job.job_seconds / avg_seconds[net_index]);
      }
      std::printf("\n");
      if (pattern == DistributionPattern::kSkewed && net_index == 0) {
        std::printf("    per-reducer shuffle load:\n");
        for (size_t r = 0; r < job.reducer_bytes.size(); ++r) {
          const double pct = 100.0 *
                             static_cast<double>(job.reducer_bytes[r]) /
                             static_cast<double>(job.total_shuffle_bytes);
          std::printf("      reduce %2zu: %9s (%5.1f%%) %s\n", r,
                      FormatBytes(job.reducer_bytes[r]).c_str(), pct,
                      std::string(static_cast<size_t>(pct / 2), '#').c_str());
        }
      }
      ++net_index;
    }
  }
  std::printf(
      "\nTakeaway (matches the paper): a faster interconnect shaves ~20-25%%"
      "\noff a balanced job, but a skewed job stays ~2x slower on ANY network"
      "\n— the slowest reducer, not the wire, is the bottleneck. Skew"
      "\nmitigation must rebalance the partitions themselves.\n");
  return 0;
}

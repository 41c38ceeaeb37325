// network_comparison: the paper's core question as a 30-second experiment —
// how much does the interconnect matter for a stand-alone MapReduce job?
//
// Runs MR-AVG at a configurable shuffle size over every built-in network
// profile on both testbed shapes and prints a ranked comparison.
//
//   ./network_comparison [--shuffle=16GB] [--pattern=avg|rand|skew]

#include <cstdio>
#include <iostream>

#include "mrmb/benchmark.h"
#include "mrmb/flags.h"
#include "mrmb/report.h"

int main(int argc, char** argv) {
  using namespace mrmb;
  auto flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok() || flags_or->help_requested()) {
    std::cout << "usage: network_comparison [--shuffle=16GB] "
                 "[--pattern=avg|rand|skew]\n";
    return flags_or.ok() ? 0 : 2;
  }
  auto shuffle = flags_or->GetBytes("shuffle", 16 * kGB);
  auto pattern_name = flags_or->GetString("pattern", "avg");
  if (!shuffle.ok() || !pattern_name.ok()) return 2;
  if (const Status unread = flags_or->CheckAllRead(); !unread.ok()) {
    std::cerr << unread.ToString() << "\n";
    return 2;
  }
  auto pattern = DistributionPatternByName(*pattern_name);
  if (!pattern.ok()) {
    std::cerr << pattern.status().ToString() << "\n";
    return 2;
  }

  std::printf("Stand-alone MapReduce (%s, %s shuffle) across interconnects\n",
              DistributionPatternName(*pattern),
              FormatBytes(*shuffle).c_str());
  std::printf("%-22s %-12s %12s %14s %12s\n", "Network", "Cluster",
              "job (s)", "vs 1GigE", "peak RX MB/s");

  double baseline = 0;
  for (const NetworkProfile& network : AllNetworkProfiles()) {
    BenchmarkOptions options;
    options.pattern = *pattern;
    options.shuffle_bytes = *shuffle;
    options.network = network;
    options.collect_resource_stats = true;
    // FDR profiles belong to Cluster B's testbed; QDR and Ethernet to A.
    const bool cluster_b = network.raw_bandwidth_bps > 4e10;
    if (cluster_b) {
      options.cluster = ClusterKind::kClusterB;
      options.num_slaves = 8;
      options.num_maps = 32;
      options.num_reduces = 16;
    } else {
      options.cluster = ClusterKind::kClusterA;
      options.num_slaves = 4;
      options.num_maps = 16;
      options.num_reduces = 8;
    }
    auto result = RunMicroBenchmark(options);
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      return 1;
    }
    if (baseline == 0) baseline = result->job.job_seconds;
    std::printf("%-22s %-12s %12.2f %13.1f%% %12.1f\n", network.name.c_str(),
                ClusterKindName(options.cluster),
                result->job.job_seconds,
                (baseline - result->job.job_seconds) / baseline * 100.0,
                result->peak_rx_MBps);
  }
  std::printf(
      "\n(A and B rows use their own testbed shapes; compare within a "
      "cluster. The paper's Fig. 2/Fig. 8 shapes: ~17-24%% gains from "
      "faster TCP-family networks, ~20-30%% more from native RDMA.)\n");
  return 0;
}

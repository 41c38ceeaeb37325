// tuning_sweep: use the suite the way the paper intends — "to tune and
// optimize these factors, based on cluster and workload characteristics"
// (Sect. 1). For a fixed workload and interconnect, sweeps the framework
// parameters a Hadoop operator controls (task counts, sort buffer, parallel
// copies, slow start) and prints the best setting of each.
//
//   ./tuning_sweep [--shuffle=16GB] [--network=ipoib-qdr] [--slaves=4]

#include <cstdio>
#include <iostream>
#include <vector>

#include "mrmb/benchmark.h"
#include "mrmb/flags.h"

namespace {

using namespace mrmb;

double RunConf(const BenchmarkOptions& options, const JobConf& conf) {
  SimCluster cluster(options.ToClusterSpec());
  SimJobRunner runner(&cluster, conf, options.cost);
  auto result = runner.Run();
  if (!result.ok()) {
    std::cerr << "run failed: " << result.status().ToString() << "\n";
    std::exit(1);
  }
  return result->job_seconds;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok() || flags_or->help_requested()) {
    std::cout << "usage: tuning_sweep [--shuffle=16GB] "
                 "[--network=ipoib-qdr] [--slaves=4]\n";
    return flags_or.ok() ? 0 : 2;
  }
  auto shuffle = flags_or->GetBytes("shuffle", 16 * kGB);
  auto network_name = flags_or->GetString("network", "ipoib-qdr");
  auto slaves = flags_or->GetInt("slaves", 4);
  if (!shuffle.ok() || !network_name.ok() || !slaves.ok()) return 2;
  if (const Status unread = flags_or->CheckAllRead(); !unread.ok()) {
    std::cerr << unread.ToString() << "\n";
    return 2;
  }
  auto network = NetworkProfileByName(*network_name);
  if (!network.ok()) {
    std::cerr << network.status().ToString() << "\n";
    return 2;
  }

  BenchmarkOptions options;
  options.shuffle_bytes = *shuffle;
  options.network = *network;
  options.num_slaves = static_cast<int>(*slaves);

  std::printf("Tuning a %s MR-AVG job on %s (%d slaves)\n\n",
              FormatBytes(*shuffle).c_str(), network->name.c_str(),
              options.num_slaves);

  // 1. Task counts.
  std::printf("--- maps x reduces ---\n");
  double best_time = 1e30;
  std::pair<int, int> best_tasks;
  for (int maps : {8, 16, 32, 64}) {
    for (int reduces : {4, 8, 16}) {
      BenchmarkOptions o = options;
      o.num_maps = maps;
      o.num_reduces = reduces;
      const double seconds = RunConf(o, o.ToJobConf());
      std::printf("  %2dM x %2dR : %8.2f s\n", maps, reduces, seconds);
      if (seconds < best_time) {
        best_time = seconds;
        best_tasks = {maps, reduces};
      }
    }
  }
  std::printf("  -> best: %dM x %dR (%.2f s)\n\n", best_tasks.first,
              best_tasks.second, best_time);

  options.num_maps = best_tasks.first;
  options.num_reduces = best_tasks.second;

  // 2. io.sort.mb.
  std::printf("--- io.sort.mb ---\n");
  int64_t best_sort = 0;
  best_time = 1e30;
  for (int64_t mb : {50, 100, 200, 400, 800}) {
    JobConf conf = options.ToJobConf();
    conf.io_sort_bytes = mb * kMB;
    const double seconds = RunConf(options, conf);
    std::printf("  %4lld MB : %8.2f s\n", static_cast<long long>(mb),
                seconds);
    if (seconds < best_time) {
      best_time = seconds;
      best_sort = mb;
    }
  }
  std::printf("  -> best: io.sort.mb=%lld (%.2f s)\n\n",
              static_cast<long long>(best_sort), best_time);

  // 3. Parallel copies.
  std::printf("--- mapred.reduce.parallel.copies ---\n");
  int best_copies = 0;
  best_time = 1e30;
  for (int copies : {1, 2, 5, 10, 20}) {
    JobConf conf = options.ToJobConf();
    conf.io_sort_bytes = best_sort * kMB;
    conf.parallel_copies = copies;
    const double seconds = RunConf(options, conf);
    std::printf("  %3d : %8.2f s\n", copies, seconds);
    if (seconds < best_time) {
      best_time = seconds;
      best_copies = copies;
    }
  }
  std::printf("  -> best: parallel.copies=%d (%.2f s)\n\n", best_copies,
              best_time);

  // 4. Reduce slow start.
  std::printf("--- reduce slowstart ---\n");
  double best_slowstart = 0;
  best_time = 1e30;
  for (double slowstart : {0.05, 0.25, 0.5, 0.8, 1.0}) {
    JobConf conf = options.ToJobConf();
    conf.io_sort_bytes = best_sort * kMB;
    conf.parallel_copies = best_copies;
    conf.slowstart = slowstart;
    const double seconds = RunConf(options, conf);
    std::printf("  %.2f : %8.2f s\n", slowstart, seconds);
    if (seconds < best_time) {
      best_time = seconds;
      best_slowstart = slowstart;
    }
  }
  std::printf("  -> best: slowstart=%.2f (%.2f s)\n", best_slowstart,
              best_time);
  return 0;
}

// Quickstart: run one stand-alone MapReduce micro-benchmark and print the
// paper-style report.
//
//   ./quickstart [--pattern=avg|rand|skew] [--network=1gige|10gige|ipoib-qdr|
//                 ipoib-fdr|rdma-fdr] [--shuffle=8GB] [--maps=16]
//                 [--reduces=8] [--slaves=4] [--kv=1KB] [--type=bytes|text]
//                 [--scheduler=mrv1|yarn] [--monitor]

#include <cstdio>
#include <iostream>

#include "mrmb/benchmark.h"
#include "mrmb/flags.h"
#include "mrmb/report.h"

namespace {

constexpr char kUsage[] = R"(quickstart: run one mrmb micro-benchmark.

  --pattern=avg|rand|skew   intermediate data distribution (default avg)
  --network=NAME            1gige, 10gige, ipoib-qdr, ipoib-fdr, rdma-fdr
  --shuffle=SIZE            target shuffle data size (default 8GB)
  --maps=N --reduces=N      task counts (default 16 / 8)
  --slaves=N                worker nodes (default 4)
  --kv=SIZE                 key/value pair size; split evenly (default 1KB)
  --type=bytes|text         intermediate data type (default bytes)
  --scheduler=mrv1|yarn     framework generation (default mrv1)
  --cluster=a|b             testbed shape (default a)
  --monitor                 collect CPU / network utilization samples
  --map-output-codec=C      compress the intermediate data with C
                            (none | lz4 | deflate; default none)
  --compress                deprecated alias for --map-output-codec=deflate
  --zipf-exp=S              skew exponent for --pattern=zipf (default 1.0)

Fault injection (all default off):
  --fault-plan=SPEC         ';'-separated scheduled faults, e.g.
                            "kill_node:1@t=40s;recover_node:1@t=90s;
                             degrade_link:2@t=10s,x0.25"
  --crash-prob=P --fetch-fail-prob=P     probabilistic hazards
  --map-fail-prob=P --reduce-fail-prob=P task-attempt failures
  --straggler-prob=P --straggler-slowdown=X --speculative
  --max-attempts=N --max-fetch-failures=N --blacklist-threshold=N

Functional (in-process) mode — real bytes, small sizes:
  --local                   run the job for real instead of simulating it
  --local-threads=N         worker threads for task attempts (default 1)
  --task-timeout-ms=MS      watchdog deadline per attempt (0 = off)
  --checksum[=BOOL]         verify CRC32C map-output seals (default on)
  --fetch-latency-ms=MS     fixed simulated transfer time per fetch
  --fetch-bandwidth-mbps=X  simulated shuffle bandwidth in MB/s (0 = inf)
  --combiner=none|sum       built-in combine function (sum requires
                            --type=long; default none)
  --min-spills-for-combine=N  re-combine merged map output at >= N spills
                            and every reduce-side merge fold (default 0)
  --node-combine-min-maps=N combine across N co-located maps per shuffle
                            stream before serving (< 2 = off, default)
  --shuffle-transport=T     inproc (default) or tcp: real loopback sockets
                            with zero-copy serving; output byte-identical
  --fetch-parallel-streams=N  tcp fetch connections per job (default 4)
  --local-fault-plan=SPEC   deterministic attempt faults, e.g.
                            "fail_map:3@a=0;corrupt_map:2@a=0,p=1;
                             delay_map:0@a=0,ms=500"
  --spill-dir=DIR           spill map output to disk under DIR

Crash-safe jobs (require --local and --spill-dir):
  --journal                 write-ahead job journal + two-phase output commit
  --resume                  replay the journal, adopt committed task outputs,
                            re-run only uncommitted tasks (implies --journal)
  --local-fault-plan="crash_at:EVENT@N"
                            tear the runner down in-process at the N-th
                            occurrence of EVENT (job_start, map_commit,
                            reduce_commit, job_commit)

  Crash a job at its second map commit, then resume it:
    ./quickstart --local --spill-dir=/tmp/job --journal \
        --local-fault-plan="crash_at:map_commit@1"
    ./quickstart --local --spill-dir=/tmp/job --resume
  The resumed run re-uses committed map outputs and produces byte-identical
  output (compare the report's output_fingerprint lines).
)";

}  // namespace

int main(int argc, char** argv) {
  auto flags_or = mrmb::Flags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::cerr << flags_or.status().ToString() << "\n" << kUsage;
    return 2;
  }
  const mrmb::Flags& flags = *flags_or;
  if (flags.help_requested()) {
    std::cout << kUsage;
    return 0;
  }

  mrmb::BenchmarkOptions options;
  auto fail = [](const mrmb::Status& status) {
    std::cerr << status.ToString() << "\n" << kUsage;
    return 2;
  };

  {
    auto v = flags.GetString("pattern", "avg");
    if (!v.ok()) return fail(v.status());
    auto pattern = mrmb::DistributionPatternByName(*v);
    if (!pattern.ok()) return fail(pattern.status());
    options.pattern = *pattern;
  }
  {
    auto v = flags.GetString("network", "ipoib-qdr");
    if (!v.ok()) return fail(v.status());
    auto network = mrmb::NetworkProfileByName(*v);
    if (!network.ok()) return fail(network.status());
    options.network = *network;
  }
  {
    auto v = flags.GetString("type", "bytes");
    if (!v.ok()) return fail(v.status());
    auto type = mrmb::DataTypeByName(*v);
    if (!type.ok()) return fail(type.status());
    options.data_type = *type;
  }
  {
    auto v = flags.GetString("cluster", "a");
    if (!v.ok()) return fail(v.status());
    auto cluster = mrmb::ClusterKindByName(*v);
    if (!cluster.ok()) return fail(cluster.status());
    options.cluster = *cluster;
  }
  {
    auto v = flags.GetString("scheduler", "mrv1");
    if (!v.ok()) return fail(v.status());
    options.scheduler = (*v == "yarn") ? mrmb::SchedulerKind::kYarn
                                       : mrmb::SchedulerKind::kMrv1;
  }
  auto shuffle = flags.GetBytes("shuffle", 8 * mrmb::kGB);
  if (!shuffle.ok()) return fail(shuffle.status());
  options.shuffle_bytes = *shuffle;
  auto kv = flags.GetBytes("kv", 1 * mrmb::kKB);
  if (!kv.ok()) return fail(kv.status());
  options.key_size = *kv / 2;
  options.value_size = *kv - options.key_size;
  auto maps = flags.GetInt("maps", 16);
  if (!maps.ok()) return fail(maps.status());
  options.num_maps = static_cast<int>(*maps);
  auto reduces = flags.GetInt("reduces", 8);
  if (!reduces.ok()) return fail(reduces.status());
  options.num_reduces = static_cast<int>(*reduces);
  auto slaves = flags.GetInt("slaves", 4);
  if (!slaves.ok()) return fail(slaves.status());
  options.num_slaves = static_cast<int>(*slaves);
  auto monitor = flags.GetBool("monitor", false);
  if (!monitor.ok()) return fail(monitor.status());
  options.collect_resource_stats = *monitor;
  auto compress = flags.GetBool("compress", false);
  if (!compress.ok()) return fail(compress.status());
  options.compress_map_output = *compress;
  auto zipf = flags.GetDouble("zipf-exp", 1.0);
  if (!zipf.ok()) return fail(zipf.status());
  options.zipf_exponent = *zipf;
  {
    const mrmb::Status status =
        mrmb::ApplyFaultToleranceFlags(flags, &options);
    if (!status.ok()) return fail(status);
  }

  auto local = flags.GetBool("local", false);
  if (!local.ok()) return fail(local.status());
  {
    const mrmb::Status status = flags.CheckAllRead();
    if (!status.ok()) return fail(status);
  }
  if (*local) {
    // Functional mode runs real bytes through the task-attempt engine;
    // default to a shuffle size a workstation chews through quickly unless
    // the user asked for something specific.
    if (!flags.Has("shuffle")) options.shuffle_bytes = 8 * mrmb::kMB;
    auto result = mrmb::RunMicroBenchmarkLocally(options);
    if (!result.ok()) {
      std::cerr << "local run failed: " << result.status().ToString() << "\n";
      return 1;
    }
    mrmb::PrintLocalJobReport(options, *result, &std::cout);
    return 0;
  }

  auto result = mrmb::RunMicroBenchmark(options);
  if (!result.ok()) {
    std::cerr << "benchmark failed: " << result.status().ToString() << "\n";
    return 1;
  }
  mrmb::PrintBenchmarkReport(*result, &std::cout);
  return 0;
}

// The micro-benchmark suite public API (the paper's contribution).
//
// A BenchmarkOptions names one measurement: a distribution pattern
// (MR-AVG / MR-RAND / MR-SKEW), the intermediate data shape (key/value
// sizes, count or target shuffle size, data type), the task counts, and the
// platform (cluster, interconnect, scheduler generation). RunMicroBenchmark
// assembles the simulated cluster, runs the stand-alone job (NullInputFormat
// -> generated pairs -> custom partitioner -> shuffle -> discard), and
// returns the job execution time, phase breakdown, per-reducer loads, and
// optional dstat-style resource-utilization traces.
//
// Quickstart:
//   BenchmarkOptions options;
//   options.pattern = DistributionPattern::kAverage;
//   options.shuffle_bytes = 8 * kGB;
//   options.network = IpoibQdr();
//   auto result = RunMicroBenchmark(options);
//   std::cout << result->job.job_seconds << " s\n";

#ifndef MRMB_MRMB_BENCHMARK_H_
#define MRMB_MRMB_BENCHMARK_H_

#include <string>
#include <vector>

#include "cluster/cluster_spec.h"
#include "cluster/resource_monitor.h"
#include "common/status.h"
#include "mapred/cost_model.h"
#include "mapred/local_runner.h"
#include "mapred/sim_runner.h"

namespace mrmb {

enum class ClusterKind {
  kClusterA,  // 9-node Westmere (the paper's 1/10 GigE + QDR testbed)
  kClusterB,  // TACC Stampede (FDR testbed)
};

const char* ClusterKindName(ClusterKind kind);
Result<ClusterKind> ClusterKindByName(const std::string& name);

struct BenchmarkOptions {
  // ---- What to measure --------------------------------------------------
  DistributionPattern pattern = DistributionPattern::kAverage;
  // Skew strength when pattern == kZipf.
  double zipf_exponent = 1.0;
  DataType data_type = DataType::kBytesWritable;
  // Codec the spill path runs over map output (none / lz4 / deflate); the
  // simulation measures the real compression ratio of a record sample and
  // the functional engine compresses the actual bytes (see JobConf).
  MapOutputCodec map_output_codec = MapOutputCodec::kNone;
  // Deprecated alias for map_output_codec (the old bare
  // mapred.compress.map.output bool); true selects DEFLATE when the codec
  // knob is unset.
  bool compress_map_output = false;
  int64_t key_size = 512;    // payload bytes per key
  int64_t value_size = 512;  // payload bytes per value
  // Target total intermediate (shuffle) data; the suite derives the number
  // of generated key/value pairs from it. Ignored when `records_per_map`
  // is set (> 0).
  int64_t shuffle_bytes = 8LL * 1024 * 1024 * 1024;
  int64_t records_per_map = 0;

  // ---- Job shape ---------------------------------------------------------
  int num_maps = 16;
  int num_reduces = 8;
  uint64_t seed = 42;

  // ---- Platform -----------------------------------------------------------
  ClusterKind cluster = ClusterKind::kClusterA;
  int num_slaves = 4;
  NetworkProfile network = OneGigE();
  SchedulerKind scheduler = SchedulerKind::kMrv1;
  // Slot counts; <= 0 means auto (enough for a single wave).
  int map_slots_per_node = 0;
  int reduce_slots_per_node = 0;

  // ---- Fault tolerance ------------------------------------------------
  // Per-attempt task failure/straggler injection (see JobConf).
  double map_failure_prob = 0.0;
  double reduce_failure_prob = 0.0;
  double straggler_prob = 0.0;
  double straggler_slowdown = 3.0;
  bool speculative_execution = false;
  int max_task_attempts = 4;
  // Node-level failure domains: scheduled crashes/recoveries, link
  // degradations and probabilistic hazards (see sim/fault_plan.h).
  FaultPlan fault_plan;
  int max_fetch_failures = 4;
  // 0 disables blacklisting.
  int node_blacklist_threshold = 0;

  // ---- Functional (local) runner --------------------------------------
  // Only read by RunMicroBenchmarkLocally / LocalJobRunner (see JobConf
  // for semantics); the simulation ignores them.
  int local_threads = 1;
  int sort_threads = 1;  // 0 = match local_threads
  int64_t task_timeout_ms = 0;
  bool checksum_map_output = true;
  // Fraction of maps that must commit before reducers start fetching
  // (0 = fetch from the first commit, 1 = full map barrier).
  double reduce_slowstart = 0.05;
  // Max streams per reduce-side merge (Hadoop's io.sort.factor).
  int merge_factor = 10;
  // Built-in combiner (none / sum; sum requires LongWritable data) plus the
  // merge-time and in-node combining stages (see JobConf for semantics).
  CombinerKind combiner = CombinerKind::kNone;
  int min_spills_for_combine = 0;
  int node_combine_min_maps = 0;
  // Simulated transfer time per fetched partition (wall-clock only; the
  // data plane never changes). 0 = fetches are free pointer handoffs.
  int64_t fetch_latency_ms = 0;
  // Simulated shuffle bandwidth in MB/s: adds on_wire_bytes / bandwidth to
  // each fetch on top of fetch_latency_ms. 0 = infinite bandwidth.
  double fetch_bandwidth_mbps = 0;
  // Shuffle data plane: in-process handoff (default) or real loopback TCP
  // with `fetch_parallel_streams` concurrent connections per job.
  // shuffle_server_reactors shards the server's epoll loops, and
  // fetch_window_init/max bound the client's AIMD in-flight window.
  // shuffle_socket_buffer_bytes sets SO_SNDBUF/SO_RCVBUF on every shuffle
  // socket (0 = kernel default).
  ShuffleTransport shuffle_transport = ShuffleTransport::kInproc;
  int fetch_parallel_streams = 4;
  int shuffle_server_reactors = 1;
  int fetch_window_init = 4;
  int fetch_window_max = 32;
  int64_t shuffle_socket_buffer_bytes = 0;
  LocalFaultPlan local_fault_plan;
  // ---- Disk spill engine (see JobConf for semantics) ------------------
  // Engine turns on when spill_dir is set or spill_budget_bytes >= 0.
  std::string spill_dir;
  int64_t spill_budget_bytes = -1;
  int64_t spill_cache_bytes = 16LL * 1024 * 1024;
  int64_t spill_block_bytes = 256LL * 1024;
  bool spill_scrub = false;
  bool spill_mmap = false;
  // ---- Crash-safe jobs (see JobConf::job_journal / resume) ------------
  // Both require spill_dir; resume implies journaling.
  bool job_journal = false;
  bool resume = false;

  // ---- Instrumentation ------------------------------------------------
  bool collect_resource_stats = false;
  SimTime monitor_interval = kSecond;

  CostModel cost = CostModel::Default();

  // Materializes the JobConf this benchmark runs.
  JobConf ToJobConf() const;
  // The simulated cluster it runs on.
  ClusterSpec ToClusterSpec() const;
};

struct BenchmarkResult {
  BenchmarkOptions options;
  SimJobResult job;
  // Resource trace of slave node 0 (what the paper's Fig. 7 plots); empty
  // unless collect_resource_stats was set.
  std::vector<ResourceSample> node0_samples;
  double peak_rx_MBps = 0;
  double mean_cpu_pct = 0;
};

// Runs one micro-benchmark measurement on a fresh simulated cluster.
Result<BenchmarkResult> RunMicroBenchmark(const BenchmarkOptions& options);

// Runs the same benchmark definition through the functional in-process
// engine (real bytes; small sizes only). Used by tests and examples to
// validate distribution semantics against the simulation.
Result<LocalJobResult> RunMicroBenchmarkLocally(
    const BenchmarkOptions& options);

}  // namespace mrmb

#endif  // MRMB_MRMB_BENCHMARK_H_

#include "mrmb/benchmark.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "common/strings.h"

namespace mrmb {

const char* ClusterKindName(ClusterKind kind) {
  switch (kind) {
    case ClusterKind::kClusterA:
      return "ClusterA";
    case ClusterKind::kClusterB:
      return "ClusterB";
  }
  return "Unknown";
}

Result<ClusterKind> ClusterKindByName(const std::string& name) {
  const std::string key = ToLower(name);
  if (key == "clustera" || key == "a" || key == "westmere") {
    return ClusterKind::kClusterA;
  }
  if (key == "clusterb" || key == "b" || key == "stampede") {
    return ClusterKind::kClusterB;
  }
  return Status::InvalidArgument("unknown cluster: '" + name + "'");
}

JobConf BenchmarkOptions::ToJobConf() const {
  JobConf conf;
  conf.job_name = std::string("mrmb-") + DistributionPatternName(pattern);
  conf.num_maps = num_maps;
  conf.num_reduces = num_reduces;
  conf.pattern = pattern;
  conf.zipf_exponent = zipf_exponent;
  conf.map_output_codec = map_output_codec;
  conf.compress_map_output = compress_map_output;
  conf.seed = seed;
  conf.scheduler = scheduler;

  conf.map_failure_prob = map_failure_prob;
  conf.reduce_failure_prob = reduce_failure_prob;
  conf.straggler_prob = straggler_prob;
  conf.straggler_slowdown = straggler_slowdown;
  conf.speculative_execution = speculative_execution;
  conf.max_task_attempts = max_task_attempts;
  conf.fault_plan = fault_plan;
  conf.max_fetch_failures = max_fetch_failures;
  conf.node_blacklist_threshold = node_blacklist_threshold;

  conf.local_threads = local_threads;
  conf.sort_threads = sort_threads;
  conf.task_timeout_ms = task_timeout_ms;
  conf.checksum_map_output = checksum_map_output;
  conf.reduce_slowstart = reduce_slowstart;
  conf.merge_factor = merge_factor;
  conf.combiner = combiner;
  conf.min_spills_for_combine = min_spills_for_combine;
  conf.node_combine_min_maps = node_combine_min_maps;
  conf.fetch_latency_ms = fetch_latency_ms;
  conf.fetch_bandwidth_mbps = fetch_bandwidth_mbps;
  conf.shuffle_transport = shuffle_transport;
  conf.fetch_parallel_streams = fetch_parallel_streams;
  conf.shuffle_server_reactors = shuffle_server_reactors;
  conf.fetch_window_init = fetch_window_init;
  conf.fetch_window_max = fetch_window_max;
  conf.shuffle_socket_buffer_bytes = shuffle_socket_buffer_bytes;
  conf.local_fault_plan = local_fault_plan;
  conf.spill_dir = spill_dir;
  conf.spill_budget_bytes = spill_budget_bytes;
  conf.spill_cache_bytes = spill_cache_bytes;
  conf.spill_block_bytes = spill_block_bytes;
  conf.spill_scrub = spill_scrub;
  conf.spill_mmap = spill_mmap;
  conf.job_journal = job_journal;
  conf.resume = resume;

  conf.record.type = data_type;
  conf.record.key_size = static_cast<size_t>(key_size);
  conf.record.value_size = static_cast<size_t>(value_size);
  // The paper restricts unique keys to the reducer count (Sect. 4.2).
  conf.record.num_unique_keys = num_reduces;
  conf.record.seed = seed;

  if (records_per_map > 0) {
    conf.records_per_map = records_per_map;
  } else {
    RecordGenerator generator(conf.record);
    const int64_t total = generator.RecordsForShuffleBytes(shuffle_bytes);
    conf.records_per_map = (total + num_maps - 1) / num_maps;
  }

  // Auto slots: enough for a single wave of the requested tasks (the
  // paper's configurations size task counts to the cluster).
  conf.map_slots_per_node =
      map_slots_per_node > 0
          ? map_slots_per_node
          : std::max(1, (num_maps + num_slaves - 1) / num_slaves);
  conf.reduce_slots_per_node =
      reduce_slots_per_node > 0
          ? reduce_slots_per_node
          : std::max(1, (num_reduces + num_slaves - 1) / num_slaves);
  return conf;
}

ClusterSpec BenchmarkOptions::ToClusterSpec() const {
  switch (cluster) {
    case ClusterKind::kClusterA:
      return ClusterA(network, num_slaves);
    case ClusterKind::kClusterB:
      return ClusterB(network, num_slaves);
  }
  MRMB_CHECK(false) << "unreachable";
  return ClusterA(network, num_slaves);
}

Result<BenchmarkResult> RunMicroBenchmark(const BenchmarkOptions& options) {
  if (options.num_slaves <= 0) {
    return Status::InvalidArgument("num_slaves must be > 0");
  }
  BenchmarkResult result;
  result.options = options;

  SimCluster cluster(options.ToClusterSpec());
  std::unique_ptr<ResourceMonitor> monitor;
  if (options.collect_resource_stats) {
    monitor = std::make_unique<ResourceMonitor>(&cluster,
                                                options.monitor_interval);
  }
  SimJobRunner runner(&cluster, options.ToJobConf(), options.cost,
                      monitor.get());
  MRMB_ASSIGN_OR_RETURN(result.job, runner.Run());

  if (monitor != nullptr) {
    result.node0_samples = monitor->samples(0);
    result.peak_rx_MBps = monitor->PeakRxMBps(0);
    result.mean_cpu_pct = monitor->MeanCpuPct(0);
  }
  return result;
}

Result<LocalJobResult> RunMicroBenchmarkLocally(
    const BenchmarkOptions& options) {
  return LocalJobRunner::RunStandalone(options.ToJobConf());
}

}  // namespace mrmb

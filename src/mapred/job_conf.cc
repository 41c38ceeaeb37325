#include "mapred/job_conf.h"

#include "common/strings.h"

namespace mrmb {

const char* DistributionPatternName(DistributionPattern pattern) {
  switch (pattern) {
    case DistributionPattern::kAverage:
      return "MR-AVG";
    case DistributionPattern::kRandom:
      return "MR-RAND";
    case DistributionPattern::kSkewed:
      return "MR-SKEW";
    case DistributionPattern::kZipf:
      return "MR-ZIPF";
  }
  return "Unknown";
}

Result<DistributionPattern> DistributionPatternByName(
    const std::string& name) {
  const std::string key = ToLower(name);
  if (key == "mr-avg" || key == "avg" || key == "average") {
    return DistributionPattern::kAverage;
  }
  if (key == "mr-rand" || key == "rand" || key == "random") {
    return DistributionPattern::kRandom;
  }
  if (key == "mr-skew" || key == "skew" || key == "skewed") {
    return DistributionPattern::kSkewed;
  }
  if (key == "mr-zipf" || key == "zipf") {
    return DistributionPattern::kZipf;
  }
  return Status::InvalidArgument("unknown distribution pattern: '" + name +
                                 "'");
}

const char* SchedulerKindName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kMrv1:
      return "MRv1";
    case SchedulerKind::kYarn:
      return "YARN";
  }
  return "Unknown";
}

const char* ShuffleTransportName(ShuffleTransport transport) {
  switch (transport) {
    case ShuffleTransport::kInproc:
      return "inproc";
    case ShuffleTransport::kTcp:
      return "tcp";
  }
  return "Unknown";
}

Result<ShuffleTransport> ShuffleTransportByName(const std::string& name) {
  const std::string key = ToLower(name);
  if (key == "inproc" || key == "inprocess" || key == "local") {
    return ShuffleTransport::kInproc;
  }
  if (key == "tcp" || key == "socket") {
    return ShuffleTransport::kTcp;
  }
  return Status::InvalidArgument("unknown shuffle transport: '" + name +
                                 "' (accepted: inproc, tcp)");
}

const char* CombinerKindName(CombinerKind kind) {
  switch (kind) {
    case CombinerKind::kNone:
      return "none";
    case CombinerKind::kSum:
      return "sum";
  }
  return "Unknown";
}

Result<CombinerKind> CombinerKindByName(const std::string& name) {
  const std::string key = ToLower(name);
  if (key == "none" || key == "off") return CombinerKind::kNone;
  if (key == "sum" || key == "long-sum") return CombinerKind::kSum;
  return Status::InvalidArgument("unknown combiner: '" + name +
                                 "' (accepted: none, sum)");
}

uint64_t JobConf::Digest() const {
  // FNV-1a over the knobs that shape the job's output bytes (or the on-disk
  // extent format a resume must read back). Deliberately excludes execution
  // knobs — thread counts, slow-start, cache sizes, fault plans — so a
  // crashed job can be resumed under a different schedule and still adopt
  // its durable state.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  auto mix_str = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<uint8_t>(c);
      h *= 1099511628211ull;
    }
    h ^= 0xff;  // terminator so "ab","c" != "a","bc"
    h *= 1099511628211ull;
  };
  mix_str(job_name);
  mix(static_cast<uint64_t>(num_maps));
  mix(static_cast<uint64_t>(num_reduces));
  mix(static_cast<uint64_t>(records_per_map));
  mix(static_cast<uint64_t>(record.type));
  mix(static_cast<uint64_t>(record.key_size));
  mix(static_cast<uint64_t>(record.value_size));
  mix(static_cast<uint64_t>(record.num_unique_keys));
  mix(static_cast<uint64_t>(pattern));
  mix(static_cast<uint64_t>(zipf_exponent * 1e6));
  mix(seed);
  mix(static_cast<uint64_t>(effective_map_output_codec()));
  // The combine pipeline shapes map-output extents and reduce input, so a
  // resume must run under the same combine configuration.
  mix(static_cast<uint64_t>(combiner));
  mix(static_cast<uint64_t>(min_spills_for_combine));
  mix(static_cast<uint64_t>(node_combine_min_maps));
  return h;
}

Status JobConf::Validate() const {
  if (num_maps <= 0) return Status::InvalidArgument("num_maps must be > 0");
  if (num_reduces <= 0) {
    return Status::InvalidArgument("num_reduces must be > 0");
  }
  if (records_per_map < 0) {
    return Status::InvalidArgument("records_per_map must be >= 0");
  }
  if (record.key_size < 8) {
    return Status::InvalidArgument("key payload must be >= 8 bytes");
  }
  if (map_slots_per_node <= 0 || reduce_slots_per_node <= 0) {
    return Status::InvalidArgument("slot counts must be > 0");
  }
  if (io_sort_bytes <= 0) {
    return Status::InvalidArgument("io_sort_bytes must be > 0");
  }
  if (spill_percent <= 0 || spill_percent > 1.0) {
    return Status::InvalidArgument("spill_percent must be in (0, 1]");
  }
  if (parallel_copies <= 0) {
    return Status::InvalidArgument("parallel_copies must be > 0");
  }
  if (slowstart < 0 || slowstart > 1.0) {
    return Status::InvalidArgument("slowstart must be in [0, 1]");
  }
  if (shuffle_input_buffer_fraction <= 0 ||
      shuffle_input_buffer_fraction > 1.0) {
    return Status::InvalidArgument(
        "shuffle_input_buffer_fraction must be in (0, 1]");
  }
  if (yarn_container_bytes <= 0) {
    return Status::InvalidArgument("yarn_container_bytes must be > 0");
  }
  if (record.num_unique_keys <= 0) {
    return Status::InvalidArgument("num_unique_keys must be > 0");
  }
  if (zipf_exponent < 0) {
    return Status::InvalidArgument("zipf_exponent must be >= 0");
  }
  if (combiner_output_fraction <= 0 || combiner_output_fraction > 1.0) {
    return Status::InvalidArgument(
        "combiner_output_fraction must be in (0, 1]");
  }
  if (combiner == CombinerKind::kSum &&
      record.type != DataType::kLongWritable) {
    return Status::InvalidArgument(
        "combiner=sum requires LongWritable records (it deserializes and "
        "sums the values)");
  }
  if (min_spills_for_combine < 0) {
    return Status::InvalidArgument("min_spills_for_combine must be >= 0");
  }
  if (node_combine_min_maps < 0) {
    return Status::InvalidArgument("node_combine_min_maps must be >= 0");
  }
  if (map_failure_prob < 0 || map_failure_prob >= 1.0 ||
      reduce_failure_prob < 0 || reduce_failure_prob >= 1.0) {
    return Status::InvalidArgument("failure probabilities must be in [0, 1)");
  }
  if (max_task_attempts <= 0) {
    return Status::InvalidArgument("max_task_attempts must be > 0");
  }
  MRMB_RETURN_IF_ERROR(fault_plan.Validate());
  if (local_threads <= 0) {
    return Status::InvalidArgument("local_threads must be > 0");
  }
  if (sort_threads < 0) {
    return Status::InvalidArgument(
        "sort_threads must be >= 0 (0 = match local_threads)");
  }
  if (task_timeout_ms < 0) {
    return Status::InvalidArgument("task_timeout_ms must be >= 0");
  }
  if (reduce_slowstart < 0 || reduce_slowstart > 1.0) {
    return Status::InvalidArgument("reduce_slowstart must be in [0, 1]");
  }
  if (merge_factor < 2) {
    return Status::InvalidArgument("merge_factor must be >= 2");
  }
  if (fetch_latency_ms < 0) {
    return Status::InvalidArgument("fetch_latency_ms must be >= 0");
  }
  if (fetch_bandwidth_mbps < 0) {
    return Status::InvalidArgument(
        "fetch_bandwidth_mbps must be >= 0 (0 = infinite)");
  }
  if (fetch_parallel_streams < 1 || fetch_parallel_streams > 64) {
    return Status::InvalidArgument(
        "fetch_parallel_streams must be in [1, 64]");
  }
  if (shuffle_protocol_version != 2) {
    return Status::InvalidArgument("shuffle_protocol_version must be 2");
  }
  if (shuffle_server_reactors < 1 || shuffle_server_reactors > 16) {
    return Status::InvalidArgument(
        "shuffle_server_reactors must be in [1, 16]");
  }
  if (fetch_window_max < 1 || fetch_window_max > 256) {
    return Status::InvalidArgument("fetch_window_max must be in [1, 256]");
  }
  if (fetch_window_init < 1 || fetch_window_init > fetch_window_max) {
    return Status::InvalidArgument(
        "fetch_window_init must be in [1, fetch_window_max]");
  }
  if (shuffle_socket_buffer_bytes < 0) {
    return Status::InvalidArgument(
        "shuffle_socket_buffer_bytes must be >= 0 (0 = kernel default)");
  }
  MRMB_RETURN_IF_ERROR(local_fault_plan.Validate());
  if (spill_budget_bytes < -1) {
    return Status::InvalidArgument(
        "spill_budget_bytes must be >= 0 (or -1 to disable the disk spill "
        "engine)");
  }
  if (spill_cache_bytes < 0) {
    return Status::InvalidArgument("spill_cache_bytes must be >= 0");
  }
  if (spill_block_bytes < 4096) {
    return Status::InvalidArgument("spill_block_bytes must be >= 4096");
  }
  if (journal_enabled() && spill_dir.empty()) {
    return Status::InvalidArgument(
        "job_journal/resume require spill_dir (the journal and durable "
        "extents live next to it)");
  }
  if (fetch_timeout < 0) {
    return Status::InvalidArgument("fetch_timeout must be >= 0");
  }
  if (fetch_retry_backoff <= 0 || fetch_retry_backoff_max <= 0 ||
      fetch_retry_backoff_max < fetch_retry_backoff) {
    return Status::InvalidArgument(
        "fetch retry backoffs must satisfy 0 < initial <= max");
  }
  if (max_fetch_failures <= 0) {
    return Status::InvalidArgument("max_fetch_failures must be > 0");
  }
  if (node_blacklist_threshold < 0) {
    return Status::InvalidArgument("node_blacklist_threshold must be >= 0");
  }
  if (straggler_prob < 0 || straggler_prob >= 1.0) {
    return Status::InvalidArgument("straggler_prob must be in [0, 1)");
  }
  if (straggler_slowdown < 1.0) {
    return Status::InvalidArgument("straggler_slowdown must be >= 1");
  }
  if (speculative_threshold <= 1.0) {
    return Status::InvalidArgument("speculative_threshold must be > 1");
  }
  if (dfs_block_bytes <= 0) {
    return Status::InvalidArgument("dfs_block_bytes must be > 0");
  }
  if (dfs_replication <= 0) {
    return Status::InvalidArgument("dfs_replication must be > 0");
  }
  if (output_to_input_ratio < 0) {
    return Status::InvalidArgument("output_to_input_ratio must be >= 0");
  }
  return Status::OK();
}

}  // namespace mrmb

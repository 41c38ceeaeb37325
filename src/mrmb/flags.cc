#include "mrmb/flags.h"

#include <cstdlib>

#include "common/strings.h"

namespace mrmb {

Result<Flags> Flags::Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      flags.help_ = true;
      continue;
    }
    if (!StartsWith(arg, "--")) {
      return Status::InvalidArgument("unexpected argument: '" + arg + "'");
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      flags.values_[arg] = argv[++i];
    } else {
      flags.values_[arg] = "true";  // bare boolean flag
    }
  }
  return flags;
}

const std::string* Flags::Find(const std::string& name) const {
  read_.insert(name);
  auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool Flags::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

Result<std::string> Flags::GetString(const std::string& name,
                                     const std::string& default_value) const {
  const std::string* value = Find(name);
  return value == nullptr ? default_value : *value;
}

Result<int64_t> Flags::GetInt(const std::string& name,
                              int64_t default_value) const {
  const std::string* value = Find(name);
  if (value == nullptr) return default_value;
  char* end = nullptr;
  const long long v = std::strtoll(value->c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    return Status::InvalidArgument("--" + name + " expects an integer, got '" +
                                   *value + "'");
  }
  return static_cast<int64_t>(v);
}

Result<double> Flags::GetDouble(const std::string& name,
                                double default_value) const {
  const std::string* value = Find(name);
  if (value == nullptr) return default_value;
  char* end = nullptr;
  const double v = std::strtod(value->c_str(), &end);
  if (end == nullptr || *end != '\0') {
    return Status::InvalidArgument("--" + name + " expects a number, got '" +
                                   *value + "'");
  }
  return v;
}

Result<bool> Flags::GetBool(const std::string& name,
                            bool default_value) const {
  const std::string* value = Find(name);
  if (value == nullptr) return default_value;
  const std::string v = ToLower(*value);
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  return Status::InvalidArgument("--" + name + " expects a boolean, got '" +
                                 *value + "'");
}

Result<int64_t> Flags::GetBytes(const std::string& name,
                                int64_t default_value) const {
  const std::string* value = Find(name);
  if (value == nullptr) return default_value;
  return ParseBytes(*value);
}

Status Flags::CheckAllRead() const {
  std::string unknown;
  for (const auto& entry : values_) {
    if (read_.count(entry.first) != 0) continue;
    unknown += (unknown.empty() ? "--" : ", --") + entry.first;
  }
  if (unknown.empty()) return Status::OK();
  return Status::InvalidArgument("unknown flag(s): " + unknown);
}

Status ApplyFaultToleranceFlags(const Flags& flags,
                                BenchmarkOptions* options) {
  MRMB_ASSIGN_OR_RETURN(
      options->map_failure_prob,
      flags.GetDouble("map-fail-prob", options->map_failure_prob));
  MRMB_ASSIGN_OR_RETURN(
      options->reduce_failure_prob,
      flags.GetDouble("reduce-fail-prob", options->reduce_failure_prob));
  MRMB_ASSIGN_OR_RETURN(
      options->straggler_prob,
      flags.GetDouble("straggler-prob", options->straggler_prob));
  MRMB_ASSIGN_OR_RETURN(
      options->straggler_slowdown,
      flags.GetDouble("straggler-slowdown", options->straggler_slowdown));
  MRMB_ASSIGN_OR_RETURN(
      options->speculative_execution,
      flags.GetBool("speculative", options->speculative_execution));
  MRMB_ASSIGN_OR_RETURN(
      const int64_t max_attempts,
      flags.GetInt("max-attempts", options->max_task_attempts));
  options->max_task_attempts = static_cast<int>(max_attempts);

  MRMB_ASSIGN_OR_RETURN(const std::string plan_spec,
                        flags.GetString("fault-plan", ""));
  if (!plan_spec.empty()) {
    MRMB_ASSIGN_OR_RETURN(options->fault_plan, FaultPlan::Parse(plan_spec));
  }
  // Individual hazard flags override what the plan string carries.
  MRMB_ASSIGN_OR_RETURN(
      options->fault_plan.node_crash_prob,
      flags.GetDouble("crash-prob", options->fault_plan.node_crash_prob));
  MRMB_ASSIGN_OR_RETURN(
      options->fault_plan.fetch_failure_prob,
      flags.GetDouble("fetch-fail-prob",
                      options->fault_plan.fetch_failure_prob));
  MRMB_ASSIGN_OR_RETURN(
      const int64_t max_fetch_failures,
      flags.GetInt("max-fetch-failures", options->max_fetch_failures));
  options->max_fetch_failures = static_cast<int>(max_fetch_failures);
  MRMB_ASSIGN_OR_RETURN(
      const int64_t blacklist_threshold,
      flags.GetInt("blacklist-threshold", options->node_blacklist_threshold));
  options->node_blacklist_threshold = static_cast<int>(blacklist_threshold);

  // Functional (local) runner knobs.
  MRMB_ASSIGN_OR_RETURN(const int64_t local_threads,
                        flags.GetInt("local-threads", options->local_threads));
  options->local_threads = static_cast<int>(local_threads);
  MRMB_ASSIGN_OR_RETURN(const int64_t sort_threads,
                        flags.GetInt("sort-threads", options->sort_threads));
  options->sort_threads = static_cast<int>(sort_threads);
  MRMB_ASSIGN_OR_RETURN(
      options->task_timeout_ms,
      flags.GetInt("task-timeout-ms", options->task_timeout_ms));
  MRMB_ASSIGN_OR_RETURN(options->checksum_map_output,
                        flags.GetBool("checksum", options->checksum_map_output));
  MRMB_ASSIGN_OR_RETURN(
      options->reduce_slowstart,
      flags.GetDouble("reduce-slowstart", options->reduce_slowstart));
  MRMB_ASSIGN_OR_RETURN(const int64_t merge_factor,
                        flags.GetInt("merge-factor", options->merge_factor));
  options->merge_factor = static_cast<int>(merge_factor);
  MRMB_ASSIGN_OR_RETURN(
      const std::string combiner_name,
      flags.GetString("combiner", CombinerKindName(options->combiner)));
  MRMB_ASSIGN_OR_RETURN(options->combiner, CombinerKindByName(combiner_name));
  MRMB_ASSIGN_OR_RETURN(
      const int64_t min_spills_for_combine,
      flags.GetInt("min-spills-for-combine", options->min_spills_for_combine));
  options->min_spills_for_combine = static_cast<int>(min_spills_for_combine);
  MRMB_ASSIGN_OR_RETURN(
      const int64_t node_combine_min_maps,
      flags.GetInt("node-combine-min-maps", options->node_combine_min_maps));
  options->node_combine_min_maps = static_cast<int>(node_combine_min_maps);
  MRMB_ASSIGN_OR_RETURN(
      options->fetch_latency_ms,
      flags.GetInt("fetch-latency-ms", options->fetch_latency_ms));
  MRMB_ASSIGN_OR_RETURN(
      options->fetch_bandwidth_mbps,
      flags.GetDouble("fetch-bandwidth-mbps", options->fetch_bandwidth_mbps));
  MRMB_ASSIGN_OR_RETURN(
      const std::string transport_name,
      flags.GetString("shuffle-transport",
                      ShuffleTransportName(options->shuffle_transport)));
  MRMB_ASSIGN_OR_RETURN(options->shuffle_transport,
                        ShuffleTransportByName(transport_name));
  MRMB_ASSIGN_OR_RETURN(
      const int64_t parallel_streams,
      flags.GetInt("fetch-parallel-streams",
                   options->fetch_parallel_streams));
  options->fetch_parallel_streams = static_cast<int>(parallel_streams);
  MRMB_ASSIGN_OR_RETURN(
      const int64_t server_reactors,
      flags.GetInt("shuffle-server-reactors",
                   options->shuffle_server_reactors));
  options->shuffle_server_reactors = static_cast<int>(server_reactors);
  MRMB_ASSIGN_OR_RETURN(
      const int64_t window_init,
      flags.GetInt("fetch-window-init", options->fetch_window_init));
  options->fetch_window_init = static_cast<int>(window_init);
  MRMB_ASSIGN_OR_RETURN(
      const int64_t window_max,
      flags.GetInt("fetch-window-max", options->fetch_window_max));
  options->fetch_window_max = static_cast<int>(window_max);
  MRMB_ASSIGN_OR_RETURN(
      options->shuffle_socket_buffer_bytes,
      flags.GetBytes("shuffle-socket-buffer-bytes",
                     options->shuffle_socket_buffer_bytes));
  MRMB_ASSIGN_OR_RETURN(
      const std::string codec_name,
      flags.GetString("map-output-codec",
                      MapOutputCodecName(options->map_output_codec)));
  MRMB_ASSIGN_OR_RETURN(options->map_output_codec,
                        MapOutputCodecByName(codec_name));
  MRMB_ASSIGN_OR_RETURN(const std::string local_plan_spec,
                        flags.GetString("local-fault-plan", ""));
  if (!local_plan_spec.empty()) {
    MRMB_ASSIGN_OR_RETURN(options->local_fault_plan,
                          LocalFaultPlan::Parse(local_plan_spec));
  }
  // Disk spill engine knobs.
  MRMB_ASSIGN_OR_RETURN(options->spill_dir,
                        flags.GetString("spill-dir", options->spill_dir));
  MRMB_ASSIGN_OR_RETURN(const std::string spill_budget,
                        flags.GetString("spill-budget-bytes", ""));
  if (spill_budget == "-1") {  // the engine-off sentinel has no byte form
    options->spill_budget_bytes = -1;
  } else {
    MRMB_ASSIGN_OR_RETURN(
        options->spill_budget_bytes,
        flags.GetBytes("spill-budget-bytes", options->spill_budget_bytes));
  }
  MRMB_ASSIGN_OR_RETURN(
      options->spill_cache_bytes,
      flags.GetBytes("spill-cache-bytes", options->spill_cache_bytes));
  MRMB_ASSIGN_OR_RETURN(
      options->spill_block_bytes,
      flags.GetBytes("spill-block-bytes", options->spill_block_bytes));
  MRMB_ASSIGN_OR_RETURN(options->spill_scrub,
                        flags.GetBool("spill-scrub", options->spill_scrub));
  MRMB_ASSIGN_OR_RETURN(options->spill_mmap,
                        flags.GetBool("spill-mmap", options->spill_mmap));
  // Crash-safe jobs: journal + resume (both require --spill-dir).
  MRMB_ASSIGN_OR_RETURN(options->job_journal,
                        flags.GetBool("journal", options->job_journal));
  MRMB_ASSIGN_OR_RETURN(options->resume,
                        flags.GetBool("resume", options->resume));
  return options->fault_plan.Validate();
}

const char* FaultToleranceFlagsHelp() {
  return
      "  --map-fail-prob=P         per-attempt map failure probability\n"
      "  --reduce-fail-prob=P      per-attempt reduce failure probability\n"
      "  --straggler-prob=P        per-attempt straggler probability\n"
      "  --straggler-slowdown=X    straggler CPU slowdown factor (>= 1)\n"
      "  --speculative[=BOOL]      enable speculative map execution\n"
      "  --max-attempts=N          attempts before a task fails the job\n"
      "  --fault-plan=SPEC         ';'-separated fault events, e.g.\n"
      "                            \"kill_node:3@t=40s;recover_node:3@t=90s;"
      "degrade_link:2@t=10s,x0.25\"\n"
      "  --crash-prob=P            per-heartbeat node crash hazard\n"
      "  --fetch-fail-prob=P       per-fetch shuffle failure probability\n"
      "  --max-fetch-failures=N    fetch failures before a map re-executes\n"
      "  --blacklist-threshold=N   task failures before a node is "
      "blacklisted (0 = off)\n"
      "  --local-threads=N         worker threads of the local runner\n"
      "  --sort-threads=N          threads per map-output sort (0 = match\n"
      "                            local-threads; output is byte-identical)\n"
      "  --task-timeout-ms=MS      local-runner watchdog deadline (0 = off)\n"
      "  --checksum[=BOOL]         verify map-output CRC32C at shuffle read\n"
      "  --reduce-slowstart=F      fraction of maps committed before reduce\n"
      "                            fetchers launch (0 = immediately, 1 = full\n"
      "                            map barrier; default 0.05)\n"
      "  --merge-factor=N          max streams per reduce-side merge (>= 2,\n"
      "                            Hadoop's io.sort.factor; default 10)\n"
      "  --combiner=K              built-in combine function run over map\n"
      "                            output (none | sum; sum requires long\n"
      "                            records and sums values per key)\n"
      "  --min-spills-for-combine=N\n"
      "                            re-run the combiner when a map merges\n"
      "                            >= N spills, and over every reduce-side\n"
      "                            merge fold (0 = per-spill combining only,\n"
      "                            default; Hadoop's\n"
      "                            mapreduce.map.combine.minspills)\n"
      "  --node-combine-min-maps=N\n"
      "                            in-node combining: group N co-located\n"
      "                            maps per shuffle stream and serve one\n"
      "                            combined segment per group (< 2 = off,\n"
      "                            default; output stays byte-identical)\n"
      "  --fetch-latency-ms=MS     fixed simulated transfer time per fetched\n"
      "                            partition (wall-clock only; default 0)\n"
      "  --fetch-bandwidth-mbps=X  simulated shuffle bandwidth in MB/s; each\n"
      "                            fetch additionally costs on-wire bytes / X\n"
      "                            (0 = infinite, default)\n"
      "  --map-output-codec=C      compress map output partitions with C\n"
      "                            (none | lz4 | deflate; default none).\n"
      "                            Replaces the deprecated --compress bool\n"
      "  --shuffle-transport=T     shuffle data plane: inproc (pointer\n"
      "                            handoff + simulated transfer cost,\n"
      "                            default) or tcp (real loopback sockets,\n"
      "                            epoll server, zero-copy extent serving;\n"
      "                            output is byte-identical)\n"
      "  --fetch-parallel-streams=N\n"
      "                            concurrent fetch connections of the tcp\n"
      "                            transport's client (1-64; default 4)\n"
      "  --shuffle-server-reactors=N\n"
      "                            epoll reactor threads the tcp shuffle\n"
      "                            server shards connections across (1-16;\n"
      "                            default 1)\n"
      "  --fetch-window-init=N     starting AIMD in-flight window of the\n"
      "                            batched fetch client (default 4)\n"
      "  --fetch-window-max=N      AIMD window ceiling (1-256; default 32;\n"
      "                            window halves on transport failures)\n"
      "  --shuffle-socket-buffer-bytes=N\n"
      "                            SO_SNDBUF/SO_RCVBUF on shuffle sockets,\n"
      "                            both sides; accepts k/m/g (0 = kernel\n"
      "                            default)\n"
      "  --local-fault-plan=SPEC   local-runner fault events, e.g.\n"
      "                            \"fail_map:3@a=0;corrupt_map:2@a=0,p=1;"
      "delay_map:0@a=0,ms=500\";\n"
      "                            I/O faults for the disk spill engine:\n"
      "                            \"corrupt_block:T@a=A,b=B[,n=N];"
      "torn_write:T@a=A;\n"
      "                            short_read:P;eio_prob:P;"
      "enospc_after_bytes:N\";\n"
      "                            transport faults (tcp shuffle only):\n"
      "                            \"drop_conn:T@a=A;trunc_frame:T@a=A;"
      "slow_peer:P\"\n"
      "  --spill-dir=PATH          back map output with extent files under\n"
      "                            PATH (empty = RAM unless a budget is set)\n"
      "  --spill-budget-bytes=N    resident sealed-spill bytes per map before\n"
      "                            spills go to disk; >= 0 also enables the\n"
      "                            engine (-1 = off, default). Accepts k/m/g\n"
      "  --spill-cache-bytes=N     ARC block-cache capacity (0 = no cache;\n"
      "                            default 16m)\n"
      "  --spill-block-bytes=N     extent block size (>= 4096; default 256k)\n"
      "  --spill-scrub[=BOOL]      CRC-scrub every extent right after seal\n"
      "                            (repairs single-bit damage, warms the\n"
      "                            cache)\n"
      "  --spill-mmap[=BOOL]       read extents via mmap instead of pread\n"
      "  --journal[=BOOL]          write-ahead job journal: commits become\n"
      "                            durable (requires --spill-dir); crash the\n"
      "                            run deterministically with\n"
      "                            --local-fault-plan=\"crash_at:EVENT@N\"\n"
      "                            (job_start | map_commit | reduce_commit |\n"
      "                            job_commit)\n"
      "  --resume[=BOOL]           replay the journal, adopt committed map\n"
      "                            outputs and reduce part files, re-run only\n"
      "                            uncommitted tasks (implies --journal;\n"
      "                            output is byte-identical to an\n"
      "                            uninterrupted run)\n";
}

}  // namespace mrmb

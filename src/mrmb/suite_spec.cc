#include "mrmb/suite_spec.h"

#include <algorithm>

#include "common/strings.h"
#include "common/units.h"
#include "mrmb/report.h"

namespace mrmb {

namespace {

const char* const kKnownKeys[] = {
    "pattern",   "network", "shuffle", "kv",       "type",
    "maps",      "reduces", "slaves",  "cluster",  "scheduler",
    "compress",  "zipf-exp", "seed",
    // Fault tolerance / fault injection.
    "map-fail-prob", "reduce-fail-prob", "straggler-prob",
    "straggler-slowdown", "speculative", "max-attempts", "fault-plan",
    "crash-prob", "fetch-fail-prob", "max-fetch-failures",
    "blacklist-threshold",
    // Functional (local) runner.
    "local-threads", "sort-threads", "task-timeout-ms", "checksum",
    "reduce-slowstart", "merge-factor", "fetch-latency-ms",
    "fetch-bandwidth-mbps", "map-output-codec", "shuffle-transport",
    "fetch-parallel-streams", "shuffle-server-reactors",
    "fetch-window-init", "fetch-window-max",
    "shuffle-socket-buffer-bytes", "local-fault-plan",
    // Combining pipeline.
    "combiner", "min-spills-for-combine", "node-combine-min-maps",
    // Disk spill engine.
    "spill-dir", "spill-budget-bytes", "spill-cache-bytes",
    "spill-block-bytes", "spill-scrub", "spill-mmap",
    // Crash-safe jobs.
    "journal", "resume",
};

bool IsKnownKey(const std::string& key) {
  return std::find_if(std::begin(kKnownKeys), std::end(kKnownKeys),
                      [&](const char* k) { return key == k; }) !=
         std::end(kKnownKeys);
}

// Sorted, comma-separated list of every key ParseSuiteSpec accepts, so an
// unknown-key error doubles as the reference the user needs to fix it.
std::string KnownKeysListing() {
  std::vector<std::string> keys(std::begin(kKnownKeys), std::end(kKnownKeys));
  std::sort(keys.begin(), keys.end());
  std::string listing;
  for (const std::string& key : keys) {
    if (!listing.empty()) listing += ", ";
    listing += key;
  }
  return listing;
}

// Strips an inline "# comment" and whitespace.
std::string CleanLine(std::string_view line) {
  const size_t hash = line.find('#');
  if (hash != std::string_view::npos) line = line.substr(0, hash);
  return std::string(StripWhitespace(line));
}

}  // namespace

Result<SuiteSpec> ParseSuiteSpec(const std::string& text) {
  SuiteSpec spec;
  SuiteSection* current = nullptr;
  int line_number = 0;
  for (const std::string& raw : SplitString(text, '\n')) {
    ++line_number;
    const std::string line = CleanLine(raw);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']' || line.size() < 3) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number) + ": malformed section");
      }
      const std::string name = line.substr(1, line.size() - 2);
      for (const SuiteSection& section : spec.sections) {
        if (section.name == name) {
          return Status::InvalidArgument("duplicate section: " + name);
        }
      }
      spec.sections.push_back(SuiteSection{name, {}});
      current = &spec.sections.back();
      continue;
    }
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": expected 'key = value'");
    }
    if (current == nullptr) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": entry outside a [section]");
    }
    const std::string key =
        ToLower(std::string(StripWhitespace(line.substr(0, eq))));
    if (!IsKnownKey(key)) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": unknown key '" + key +
                                     "' (accepted keys: " +
                                     KnownKeysListing() + ")");
    }
    if (current->entries.count(key) != 0) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": duplicate key '" + key + "'");
    }
    std::vector<std::string> values;
    for (const std::string& piece :
         SplitString(line.substr(eq + 1), ',')) {
      const std::string value = std::string(StripWhitespace(piece));
      if (!value.empty()) values.push_back(value);
    }
    if (values.empty()) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": no values for '" + key + "'");
    }
    current->entries.emplace(key, std::move(values));
  }
  if (spec.sections.empty()) {
    return Status::InvalidArgument("suite spec has no sections");
  }
  return spec;
}

namespace {

Result<std::string> SingleValue(const SuiteSection& section,
                                const std::string& key,
                                const std::string& default_value) {
  auto it = section.entries.find(key);
  if (it == section.entries.end()) return default_value;
  if (it->second.size() != 1) {
    return Status::InvalidArgument("[" + section.name + "] key '" + key +
                                   "' must have exactly one value");
  }
  return it->second[0];
}

}  // namespace

Result<ResolvedSection> ResolveSection(const SuiteSection& section) {
  ResolvedSection resolved;
  resolved.name = section.name;

  BenchmarkOptions base;
  MRMB_ASSIGN_OR_RETURN(const std::string pattern,
                        SingleValue(section, "pattern", "avg"));
  MRMB_ASSIGN_OR_RETURN(base.pattern, DistributionPatternByName(pattern));
  MRMB_ASSIGN_OR_RETURN(const std::string type,
                        SingleValue(section, "type", "bytes"));
  MRMB_ASSIGN_OR_RETURN(base.data_type, DataTypeByName(type));
  MRMB_ASSIGN_OR_RETURN(const std::string cluster,
                        SingleValue(section, "cluster", "a"));
  MRMB_ASSIGN_OR_RETURN(base.cluster, ClusterKindByName(cluster));
  MRMB_ASSIGN_OR_RETURN(const std::string scheduler,
                        SingleValue(section, "scheduler", "mrv1"));
  base.scheduler = ToLower(scheduler) == "yarn" ? SchedulerKind::kYarn
                                                : SchedulerKind::kMrv1;

  auto int_value = [&](const std::string& key, int default_value,
                       int* out) -> Status {
    MRMB_ASSIGN_OR_RETURN(
        const std::string text,
        SingleValue(section, key, std::to_string(default_value)));
    char* end = nullptr;
    const long v = std::strtol(text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || v <= 0) {
      return Status::InvalidArgument("[" + section.name + "] bad " + key +
                                     ": '" + text + "'");
    }
    *out = static_cast<int>(v);
    return Status::OK();
  };
  MRMB_RETURN_IF_ERROR(int_value("maps", 16, &base.num_maps));
  MRMB_RETURN_IF_ERROR(int_value("reduces", 8, &base.num_reduces));
  MRMB_RETURN_IF_ERROR(int_value("slaves", 4, &base.num_slaves));

  MRMB_ASSIGN_OR_RETURN(const std::string kv,
                        SingleValue(section, "kv", "1KB"));
  MRMB_ASSIGN_OR_RETURN(const int64_t kv_bytes, ParseBytes(kv));
  base.key_size = kv_bytes / 2;
  base.value_size = kv_bytes - base.key_size;

  // Deprecated alias for map-output-codec: a bare "compress: true" selects
  // DEFLATE (its historical meaning) unless the codec key is set too.
  MRMB_ASSIGN_OR_RETURN(const std::string compress,
                        SingleValue(section, "compress", "false"));
  base.compress_map_output =
      ToLower(compress) == "true" || compress == "1" ||
      ToLower(compress) == "yes";
  MRMB_ASSIGN_OR_RETURN(const std::string zipf,
                        SingleValue(section, "zipf-exp", "1.0"));
  base.zipf_exponent = std::strtod(zipf.c_str(), nullptr);
  MRMB_ASSIGN_OR_RETURN(const std::string seed,
                        SingleValue(section, "seed", "42"));
  base.seed = static_cast<uint64_t>(std::strtoull(seed.c_str(), nullptr, 10));

  // Fault tolerance / fault injection.
  auto double_value = [&](const std::string& key, double default_value,
                          double* out) -> Status {
    MRMB_ASSIGN_OR_RETURN(
        const std::string text,
        SingleValue(section, key, StringPrintf("%g", default_value)));
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return Status::InvalidArgument("[" + section.name + "] bad " + key +
                                     ": '" + text + "'");
    }
    *out = v;
    return Status::OK();
  };
  MRMB_RETURN_IF_ERROR(double_value("map-fail-prob", base.map_failure_prob,
                                    &base.map_failure_prob));
  MRMB_RETURN_IF_ERROR(double_value("reduce-fail-prob",
                                    base.reduce_failure_prob,
                                    &base.reduce_failure_prob));
  MRMB_RETURN_IF_ERROR(double_value("straggler-prob", base.straggler_prob,
                                    &base.straggler_prob));
  MRMB_RETURN_IF_ERROR(double_value("straggler-slowdown",
                                    base.straggler_slowdown,
                                    &base.straggler_slowdown));
  MRMB_ASSIGN_OR_RETURN(const std::string speculative,
                        SingleValue(section, "speculative", "false"));
  base.speculative_execution = ToLower(speculative) == "true" ||
                               speculative == "1" ||
                               ToLower(speculative) == "yes";
  MRMB_RETURN_IF_ERROR(
      int_value("max-attempts", base.max_task_attempts,
                &base.max_task_attempts));
  MRMB_RETURN_IF_ERROR(int_value("max-fetch-failures",
                                 base.max_fetch_failures,
                                 &base.max_fetch_failures));
  {
    MRMB_ASSIGN_OR_RETURN(
        const std::string text,
        SingleValue(section, "blacklist-threshold",
                    std::to_string(base.node_blacklist_threshold)));
    char* end = nullptr;
    const long v = std::strtol(text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || v < 0) {
      return Status::InvalidArgument("[" + section.name +
                                     "] bad blacklist-threshold: '" + text +
                                     "'");
    }
    base.node_blacklist_threshold = static_cast<int>(v);
  }
  if (auto it = section.entries.find("fault-plan");
      it != section.entries.end()) {
    // The entry parser comma-splits values; a plan's degrade_link tokens
    // carry ",xFACTOR", so stitch the pieces back together.
    std::string plan_text;
    for (size_t i = 0; i < it->second.size(); ++i) {
      if (i > 0) plan_text += ",";
      plan_text += it->second[i];
    }
    MRMB_ASSIGN_OR_RETURN(base.fault_plan, FaultPlan::Parse(plan_text));
  }
  MRMB_RETURN_IF_ERROR(double_value("crash-prob",
                                    base.fault_plan.node_crash_prob,
                                    &base.fault_plan.node_crash_prob));
  MRMB_RETURN_IF_ERROR(double_value("fetch-fail-prob",
                                    base.fault_plan.fetch_failure_prob,
                                    &base.fault_plan.fetch_failure_prob));
  MRMB_RETURN_IF_ERROR(base.fault_plan.Validate());

  // Functional (local) runner.
  MRMB_RETURN_IF_ERROR(
      int_value("local-threads", base.local_threads, &base.local_threads));
  MRMB_RETURN_IF_ERROR(
      int_value("sort-threads", base.sort_threads, &base.sort_threads));
  {
    MRMB_ASSIGN_OR_RETURN(
        const std::string text,
        SingleValue(section, "task-timeout-ms",
                    std::to_string(base.task_timeout_ms)));
    char* end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || v < 0) {
      return Status::InvalidArgument("[" + section.name +
                                     "] bad task-timeout-ms: '" + text + "'");
    }
    base.task_timeout_ms = static_cast<int64_t>(v);
  }
  MRMB_ASSIGN_OR_RETURN(const std::string checksum,
                        SingleValue(section, "checksum", "true"));
  base.checksum_map_output = !(ToLower(checksum) == "false" ||
                               checksum == "0" || ToLower(checksum) == "no");
  MRMB_RETURN_IF_ERROR(double_value("reduce-slowstart", base.reduce_slowstart,
                                    &base.reduce_slowstart));
  if (base.reduce_slowstart < 0 || base.reduce_slowstart > 1.0) {
    return Status::InvalidArgument(
        "[" + section.name + "] reduce-slowstart must be in [0, 1]");
  }
  MRMB_RETURN_IF_ERROR(
      int_value("merge-factor", base.merge_factor, &base.merge_factor));
  if (base.merge_factor < 2) {
    return Status::InvalidArgument("[" + section.name +
                                   "] merge-factor must be >= 2");
  }
  {
    MRMB_ASSIGN_OR_RETURN(
        const std::string text,
        SingleValue(section, "fetch-latency-ms",
                    std::to_string(base.fetch_latency_ms)));
    char* end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || v < 0) {
      return Status::InvalidArgument("[" + section.name +
                                     "] bad fetch-latency-ms: '" + text + "'");
    }
    base.fetch_latency_ms = static_cast<int64_t>(v);
  }
  MRMB_RETURN_IF_ERROR(double_value("fetch-bandwidth-mbps",
                                    base.fetch_bandwidth_mbps,
                                    &base.fetch_bandwidth_mbps));
  if (base.fetch_bandwidth_mbps < 0) {
    return Status::InvalidArgument(
        "[" + section.name + "] fetch-bandwidth-mbps must be >= 0");
  }
  {
    MRMB_ASSIGN_OR_RETURN(
        const std::string codec_name,
        SingleValue(section, "map-output-codec",
                    MapOutputCodecName(base.map_output_codec)));
    Result<MapOutputCodec> codec = MapOutputCodecByName(codec_name);
    if (!codec.ok()) {
      return Status::InvalidArgument("[" + section.name +
                                     "] bad map-output-codec: '" +
                                     codec_name + "'");
    }
    base.map_output_codec = *codec;
  }
  {
    MRMB_ASSIGN_OR_RETURN(
        const std::string transport_name,
        SingleValue(section, "shuffle-transport",
                    ShuffleTransportName(base.shuffle_transport)));
    Result<ShuffleTransport> transport =
        ShuffleTransportByName(transport_name);
    if (!transport.ok()) {
      return Status::InvalidArgument("[" + section.name +
                                     "] bad shuffle-transport: '" +
                                     transport_name + "'");
    }
    base.shuffle_transport = *transport;
  }
  MRMB_RETURN_IF_ERROR(int_value("fetch-parallel-streams",
                                 base.fetch_parallel_streams,
                                 &base.fetch_parallel_streams));
  MRMB_RETURN_IF_ERROR(int_value("shuffle-server-reactors",
                                 base.shuffle_server_reactors,
                                 &base.shuffle_server_reactors));
  MRMB_RETURN_IF_ERROR(int_value("fetch-window-init", base.fetch_window_init,
                                 &base.fetch_window_init));
  MRMB_RETURN_IF_ERROR(int_value("fetch-window-max", base.fetch_window_max,
                                 &base.fetch_window_max));
  {
    // Socket buffer legitimately takes 0 (= kernel default), which the
    // positive-only int_value helper rejects.
    MRMB_ASSIGN_OR_RETURN(
        const std::string text,
        SingleValue(section, "shuffle-socket-buffer-bytes",
                    std::to_string(base.shuffle_socket_buffer_bytes)));
    char* end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || v < 0) {
      return Status::InvalidArgument(
          "[" + section.name + "] bad shuffle-socket-buffer-bytes: '" + text +
          "'");
    }
    base.shuffle_socket_buffer_bytes = static_cast<int64_t>(v);
  }
  {
    MRMB_ASSIGN_OR_RETURN(
        const std::string combiner_name,
        SingleValue(section, "combiner", CombinerKindName(base.combiner)));
    Result<CombinerKind> kind = CombinerKindByName(combiner_name);
    if (!kind.ok()) {
      return Status::InvalidArgument("[" + section.name + "] bad combiner: '" +
                                     combiner_name + "'");
    }
    base.combiner = *kind;
  }
  // Both combine-stage counts legitimately take 0 (= stage off), which the
  // positive-only int_value helper rejects.
  const auto count_value = [&](const char* key, int current,
                               int* out) -> Status {
    MRMB_ASSIGN_OR_RETURN(const std::string text,
                          SingleValue(section, key, std::to_string(current)));
    char* end = nullptr;
    const long v = std::strtol(text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || v < 0) {
      return Status::InvalidArgument("[" + section.name + "] bad " +
                                     std::string(key) + ": '" + text + "'");
    }
    *out = static_cast<int>(v);
    return Status::OK();
  };
  MRMB_RETURN_IF_ERROR(count_value("min-spills-for-combine",
                                   base.min_spills_for_combine,
                                   &base.min_spills_for_combine));
  MRMB_RETURN_IF_ERROR(count_value("node-combine-min-maps",
                                   base.node_combine_min_maps,
                                   &base.node_combine_min_maps));
  if (auto it = section.entries.find("local-fault-plan");
      it != section.entries.end()) {
    // Comma-carrying tokens (corrupt_map's ",p=" / delay's ",ms=") were
    // split by the entry parser; stitch them back, like fault-plan above.
    std::string plan_text;
    for (size_t i = 0; i < it->second.size(); ++i) {
      if (i > 0) plan_text += ",";
      plan_text += it->second[i];
    }
    MRMB_ASSIGN_OR_RETURN(base.local_fault_plan,
                          LocalFaultPlan::Parse(plan_text));
  }

  // Disk spill engine.
  MRMB_ASSIGN_OR_RETURN(base.spill_dir,
                        SingleValue(section, "spill-dir", base.spill_dir));
  const auto bytes_value = [&](const char* key, int64_t current,
                               int64_t* out) -> Status {
    MRMB_ASSIGN_OR_RETURN(const std::string text,
                          SingleValue(section, key, std::to_string(current)));
    if (text == "-1") {  // the engine-off sentinel has no byte suffix form
      *out = -1;
      return Status::OK();
    }
    Result<int64_t> bytes = ParseBytes(text);
    if (!bytes.ok()) {
      return Status::InvalidArgument("[" + section.name + "] bad " +
                                     std::string(key) + ": '" + text + "'");
    }
    *out = *bytes;
    return Status::OK();
  };
  MRMB_RETURN_IF_ERROR(bytes_value("spill-budget-bytes",
                                   base.spill_budget_bytes,
                                   &base.spill_budget_bytes));
  MRMB_RETURN_IF_ERROR(bytes_value("spill-cache-bytes", base.spill_cache_bytes,
                                   &base.spill_cache_bytes));
  MRMB_RETURN_IF_ERROR(bytes_value("spill-block-bytes", base.spill_block_bytes,
                                   &base.spill_block_bytes));
  MRMB_ASSIGN_OR_RETURN(const std::string spill_scrub,
                        SingleValue(section, "spill-scrub", "false"));
  base.spill_scrub = ToLower(spill_scrub) == "true" || spill_scrub == "1" ||
                     ToLower(spill_scrub) == "yes";
  MRMB_ASSIGN_OR_RETURN(const std::string spill_mmap,
                        SingleValue(section, "spill-mmap", "false"));
  base.spill_mmap = ToLower(spill_mmap) == "true" || spill_mmap == "1" ||
                    ToLower(spill_mmap) == "yes";

  // Crash-safe jobs.
  MRMB_ASSIGN_OR_RETURN(const std::string journal,
                        SingleValue(section, "journal", "false"));
  base.job_journal = ToLower(journal) == "true" || journal == "1" ||
                     ToLower(journal) == "yes";
  MRMB_ASSIGN_OR_RETURN(const std::string resume,
                        SingleValue(section, "resume", "false"));
  base.resume = ToLower(resume) == "true" || resume == "1" ||
                ToLower(resume) == "yes";

  // Sweep axes.
  std::vector<std::string> networks = {"ipoib-qdr"};
  if (auto it = section.entries.find("network"); it != section.entries.end()) {
    networks = it->second;
  }
  std::vector<std::string> shuffles = {"8GB"};
  if (auto it = section.entries.find("shuffle"); it != section.entries.end()) {
    shuffles = it->second;
  }

  for (const std::string& network_name : networks) {
    MRMB_ASSIGN_OR_RETURN(const NetworkProfile network,
                          NetworkProfileByName(network_name));
    resolved.series_labels.push_back(network.name);
    std::vector<BenchmarkOptions> row;
    for (const std::string& shuffle_text : shuffles) {
      MRMB_ASSIGN_OR_RETURN(const int64_t shuffle_bytes,
                            ParseBytes(shuffle_text));
      BenchmarkOptions options = base;
      options.network = network;
      options.shuffle_bytes = shuffle_bytes;
      row.push_back(options);
    }
    resolved.options.push_back(std::move(row));
  }
  resolved.x_labels = shuffles;
  return resolved;
}

Status RunSuite(const SuiteSpec& spec, bool csv, std::ostream* out) {
  for (const SuiteSection& section : spec.sections) {
    MRMB_ASSIGN_OR_RETURN(const ResolvedSection resolved,
                          ResolveSection(section));
    SweepTable table(resolved.name, "ShuffleSize");
    for (size_t s = 0; s < resolved.options.size(); ++s) {
      for (size_t x = 0; x < resolved.options[s].size(); ++x) {
        MRMB_ASSIGN_OR_RETURN(const BenchmarkResult result,
                              RunMicroBenchmark(resolved.options[s][x]));
        table.Add(resolved.series_labels[s], resolved.x_labels[x],
                  result.job.job_seconds);
      }
    }
    if (resolved.series_labels.size() > 1) {
      table.PrintWithImprovement(resolved.series_labels[0], out);
    } else {
      table.Print(out);
    }
    if (csv) table.PrintCsv(out);
  }
  return Status::OK();
}

}  // namespace mrmb

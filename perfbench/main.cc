// perfbench: runs one workload for a fixed time and writes its samples.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             --scratch=DIR --suite=FILE --out=FILE [--trace-out=FILE]
//
// Load is a closed loop: one job at a time, each started when the previous
// one returned. The set-up time runs from process start to the end of the
// warm-up (one job, or one whole sweep of the suite). With --trace=0 the
// whole time is untraced and the per-job samples are written; run.py pools
// them over several processes into the end-to-end metrics. With --trace=1
// half the time is untraced and half traced, the layer probes follow, and
// the program computes the per-layer metrics. run.py builds and drives this
// program.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "io/checksum.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  std::string scratch;
  std::string suite;
  std::string out;
  std::string trace_out;
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return Status::InvalidArgument("unknown argument: " + arg);
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      args.workload = value;
    } else if (key == "seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        return Status::InvalidArgument("bad --seed: " + value);
      }
    } else if (key == "seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0)) {
        return Status::InvalidArgument("bad --seconds: " + value);
      }
    } else if (key == "trace") {
      if (value != "0" && value != "1") {
        return Status::InvalidArgument("bad --trace: " + value);
      }
      args.trace = value == "1";
    } else if (key == "scratch") {
      args.scratch = value;
    } else if (key == "suite") {
      args.suite = value;
    } else if (key == "out") {
      args.out = value;
    } else if (key == "trace-out") {
      args.trace_out = value;
    } else {
      return Status::InvalidArgument("unknown argument: " + arg);
    }
  }
  if (args.workload.empty() || args.scratch.empty() || args.out.empty()) {
    return Status::InvalidArgument("--workload, --scratch and --out are needed");
  }
  if (args.trace && args.trace_out.empty()) {
    return Status::InvalidArgument("--trace=1 needs --trace-out");
  }
  return args;
}

// ---- Metric labels ----------------------------------------------------------

// Every reported number carries its unit; its kind: wall (elapsed time, or
// a rate or share of it), task-s (summed across concurrent tasks or
// threads) or count; and whether it repeats exactly on every clean run of
// one seed. MB is 2^20 bytes. run.py labels the end-to-end metrics the
// same way.
struct MetricDef {
  const char* name;
  const char* unit;
  const char* kind;
  bool deterministic;
};

constexpr MetricDef kPerLayer[] = {
    {"io.record_gen.busy_s", "s", "task-s", false},
    {"mapred.emit.busy_s", "s", "task-s", false},
    {"mapred.map_fn.busy_s", "s", "task-s", false},
    {"io.merge.next_busy_s", "s", "task-s", false},
    {"mapred.reduce_fn.busy_s", "s", "task-s", false},
    {"mapred.unattributed_share", "ratio", "wall", false},
    {"mapred.map_phase_s", "s", "wall", false},
    {"mapred.shuffle_wait_task_s", "s", "task-s", false},
    {"mapred.shuffle_merge_task_s", "s", "task-s", false},
    {"mapred.reduce_compute_task_s", "s", "task-s", false},
    {"mapred.overlap_efficiency", "ratio", "task-s", false},
    {"mapred.spills_per_job", "count", "count", true},
    {"mapred.crc_verifications_per_job", "count", "count", true},
    {"mapred.intermediate_merges_per_job", "count", "count", true},
    {"mapred.combine.busy_task_s", "s", "task-s", false},
    {"mapred.combine.spill_kept", "ratio", "count", true},
    {"mapred.combine.node_kept", "ratio", "count", true},
    {"mapred.shuffle.served_bytes_per_job", "bytes", "count", true},
    {"io.kv_buffer.sort_s_per_mrec", "s/Mrec", "wall", false},
    {"io.merge.s_per_mrec", "s/Mrec", "wall", false},
    {"io.block_codec.compress_s_per_mb", "s/MB", "wall", false},
    {"io.block_codec.decompress_s_per_mb", "s/MB", "wall", false},
    {"io.block_codec.ratio", "ratio", "count", true},
    {"io.spill_store.write_amplification", "ratio", "count", true},
    {"io.spill_store.put_s_per_mb", "s/MB", "wall", false},
    {"io.spill_store.read_s_per_mb", "s/MB", "wall", false},
    {"net.fetch.rpcs_per_job", "count", "count", false},
    {"net.fetch.partitions_per_rpc", "ratio", "count", false},
    {"net.fetch.mean_ms", "ms", "wall", false},
    {"net.fetch.p99_ms", "ms", "wall", false},
    {"net.retransmits_per_job", "count", "count", false},
    {"net.fetch_batch.s_per_mb", "s/MB", "wall", false},
    {"rpc.header_bytes_per_partition", "bytes", "count", true},
    {"mrmb.suite.parse_s", "s", "wall", false},
    {"cluster.build_s.p50", "s", "wall", false},
    {"sim.run_s.p50", "s", "wall", false},
    {"sim.run_s.tail", "s", "wall", false},
    {"sim.task_attempts_per_job", "count", "count", true},
    {"sim.sim_s_per_host_s", "ratio", "wall", false},
    {"proc.minor_faults_per_job", "count", "count", false},
    {"proc.ctx_switches_per_job", "count", "count", false},
    {"trace.overhead", "ratio", "wall", false},
};

struct Metric {
  const MetricDef* def = nullptr;
  double value = 0;
};
using Metrics = std::map<std::string, Metric>;

// Declares the per-layer metrics of a traced run, all at 0: a layer the
// workload bypasses reads 0. An untraced run computes none.
Metrics Declare(bool trace) {
  Metrics metrics;
  if (trace) {
    for (const MetricDef& def : kPerLayer) metrics[def.name] = {&def, 0};
  }
  return metrics;
}

void Set(Metrics* metrics, const char* name, double value) {
  const auto it = metrics->find(name);
  if (it == metrics->end()) {
    std::fprintf(stderr, "perfbench: undeclared metric %s\n", name);
    std::abort();
  }
  it->second.value = value;
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

// ---- Result file ------------------------------------------------------------

std::string Num(double value) {
  if (!std::isfinite(value)) return "null";
  char text[32];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

std::string Str(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ",") + Num(values[i]);
  }
  return out + "]";
}

// Everything one process reports; run.py pools the processes of a run and
// adds provenance and summaries.
struct RunRecord {
  double setup_s = 0;
  FailureLog log;
  Metrics metrics;
  // The untraced loop: its length, and the logical intermediate bytes its
  // jobs moved (map_output_bytes, or the simulator's configured shuffle).
  double elapsed_s = 0;
  double logical_bytes = 0;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> wall_shares;  // mean over traced jobs
};

int WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  out.close();
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return 1;
  }
  return 0;
}

int WriteResult(const Args& args, const RunRecord& record) {
  std::ostringstream out;
  out << "{\"workload\":" << Str(args.workload) << ",\"seed\":" << args.seed
      << ",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"crc32c_impl\":" << Str(mrmb::Crc32cImplName())
      << ",\"compiler\":" << Str(PERFBENCH_COMPILER)
      << ",\"build_type\":" << Str(PERFBENCH_BUILD_TYPE)
      << ",\"setup_s\":" << Num(record.setup_s)
      << ",\"elapsed_s\":" << Num(record.elapsed_s)
      << ",\"logical_bytes\":" << Num(record.logical_bytes)
      << ",\"correct\":" << (record.log.failed() == 0 ? "true" : "false")
      << ",\"attempted\":" << record.log.attempted()
      << ",\"failed\":" << record.log.failed() << ",\"failures\":[";
  for (size_t i = 0; i < record.log.messages().size(); ++i) {
    out << (i == 0 ? "" : ",") << Str(record.log.messages()[i]);
  }
  out << "],\"samples\":{";
  bool first = true;
  for (const auto& [name, values] : record.samples) {
    out << (first ? "" : ",") << Str(name) << ":" << NumList(values);
    first = false;
  }
  out << "},\"wall_shares\":{";
  first = true;
  for (const auto& [layer, share] : record.wall_shares) {
    out << (first ? "" : ",") << Str(layer) << ":" << Num(share);
    first = false;
  }
  out << "},\"metrics\":{";
  first = true;
  for (const auto& [name, metric] : record.metrics) {
    out << (first ? "" : ",") << Str(name) << ":{\"value\":"
        << Num(metric.value) << ",\"unit\":" << Str(metric.def->unit)
        << ",\"kind\":" << Str(metric.def->kind) << ",\"deterministic\":"
        << (metric.def->deterministic ? "true" : "false") << "}";
    first = false;
  }
  out << "}}\n";
  return WriteFile(args.out, out.str());
}

// ---- Shared metric helpers --------------------------------------------------

std::vector<double> Walls(const std::vector<JobSample>& samples) {
  std::vector<double> walls;
  for (const JobSample& s : samples) walls.push_back(s.wall_s);
  return walls;
}

template <typename Field>
std::vector<double> UsageOf(const std::vector<JobSample>& samples,
                            Field field) {
  std::vector<double> values;
  for (const JobSample& s : samples) {
    values.push_back(static_cast<double>(field(s.usage)));
  }
  return values;
}

void AddProcess(RunRecord* record, const std::vector<JobSample>& untraced,
                const std::vector<JobSample>& traced) {
  Metrics* m = &record->metrics;
  Set(m, "proc.minor_faults_per_job",
      Median(UsageOf(untraced, [](const Usage& u) { return u.minor_faults; })));
  Set(m, "proc.ctx_switches_per_job",
      Median(UsageOf(untraced, [](const Usage& u) { return u.ctx_switches; })));
  Set(m, "trace.overhead",
      Ratio(Median(Walls(traced)), Median(Walls(untraced))) - 1);
}

void KeepSamples(RunRecord* record, const std::string& prefix,
                 const std::vector<JobSample>& samples) {
  record->samples[prefix + "job_s"] = Walls(samples);
  record->samples[prefix + "cpu_s"] =
      UsageOf(samples, [](const Usage& u) { return u.cpu_s; });
  record->samples[prefix + "minor_faults"] =
      UsageOf(samples, [](const Usage& u) { return u.minor_faults; });
  record->samples[prefix + "ctx_switches"] =
      UsageOf(samples, [](const Usage& u) { return u.ctx_switches; });
  std::vector<double>& peaks = record->samples[prefix + "peak_rss_mb"];
  for (const JobSample& s : samples) peaks.push_back(s.peak_rss_mb);
}

// ---- Functional workloads ---------------------------------------------------

struct Loop {
  std::vector<JobSample> samples;
  std::vector<mrmb::LocalJobResult> results;  // of the jobs that returned OK
  double elapsed_s = 0;
  double logical_bytes = 0;  // map_output_bytes over all jobs
};

// Jobs back to back for `seconds`, traced when `recorder` is set; each is
// checked against the reference counters and the baseline snapshot.
Loop RunJobs(const Workload& workload, double seconds, SpanRecorder* recorder,
             const Counters& data_plane, const Counters& output,
             const ProcessSnapshot& baseline, FailureLog* log) {
  Loop loop;
  const double start = NowSeconds();
  do {
    const auto job = static_cast<int32_t>(loop.samples.size());
    const Usage before = StartSample();
    const int64_t job_start = NowNanos();
    Result<mrmb::LocalJobResult> result =
        recorder != nullptr ? RunTracedJob(workload, recorder, job)
                            : RunPaperJob(workload);
    loop.samples.push_back(FinishSample(job_start, before));
    log->Record(CheckJob(result, data_plane, output, baseline,
                         workload.conf.spill_dir),
                (recorder != nullptr ? "traced job " : "job ") +
                    std::to_string(job));
    if (result.ok()) {
      loop.logical_bytes += static_cast<double>(result->map_output_bytes);
      loop.results.push_back(std::move(result).value());
    }
  } while (NowSeconds() - start < seconds);
  loop.elapsed_s = NowSeconds() - start;
  return loop;
}

template <typename Field>
double MedianOf(const std::vector<mrmb::LocalJobResult>& results,
                Field field) {
  std::vector<double> values;
  for (const mrmb::LocalJobResult& r : results) {
    values.push_back(static_cast<double>(field(r)));
  }
  return Median(values);
}

void AddFunctionalLayers(RunRecord* record, const Workload& workload,
                         const Loop& untraced, const Loop& traced,
                         const std::vector<Span>& spans,
                         const ProbeResults& probes) {
  Metrics* m = &record->metrics;
  std::vector<JobLedger> ledgers;
  for (size_t job = 0; job < traced.samples.size(); ++job) {
    ledgers.push_back(BuildLedger(spans, static_cast<int32_t>(job)));
  }
  const auto ledger = [&ledgers](double JobLedger::*field) {
    std::vector<double> values;
    for (const JobLedger& l : ledgers) values.push_back(l.*field);
    return Median(values);
  };
  Set(m, "io.record_gen.busy_s", ledger(&JobLedger::record_gen_busy_s));
  Set(m, "mapred.emit.busy_s", ledger(&JobLedger::emit_busy_s));
  Set(m, "mapred.map_fn.busy_s", ledger(&JobLedger::map_fn_busy_s));
  Set(m, "io.merge.next_busy_s", ledger(&JobLedger::next_busy_s));
  Set(m, "mapred.reduce_fn.busy_s", ledger(&JobLedger::reduce_fn_self_s));
  Set(m, "mapred.unattributed_share", ledger(&JobLedger::unattributed_share));
  std::map<std::string, std::vector<double>> shares;
  for (const JobLedger& l : ledgers) {
    for (const auto& [layer, share] : l.wall_shares) {
      shares[layer].push_back(share);
    }
  }
  // Means, unlike medians, add up: the shares sum to 1 like each job's.
  for (const auto& [layer, values] : shares) {
    double sum = 0;
    for (const double value : values) sum += value;
    record->wall_shares[layer] = sum / static_cast<double>(ledgers.size());
  }

  // Engine counters, from the untraced jobs.
  using R = mrmb::LocalJobResult;
  const std::vector<R>& jobs = untraced.results;
  const auto median = [&jobs](auto field) { return MedianOf(jobs, field); };
  Set(m, "mapred.map_phase_s",
      median([](const R& r) { return r.map_phase_seconds; }));
  Set(m, "mapred.shuffle_wait_task_s",
      median([](const R& r) { return r.shuffle_wait_seconds; }));
  Set(m, "mapred.shuffle_merge_task_s",
      median([](const R& r) { return r.shuffle_merge_seconds; }));
  Set(m, "mapred.reduce_compute_task_s",
      median([](const R& r) { return r.reduce_compute_seconds; }));
  Set(m, "mapred.overlap_efficiency",
      median([](const R& r) { return r.overlap_efficiency; }));
  Set(m, "mapred.spills_per_job",
      median([](const R& r) { return r.spill_count; }));
  Set(m, "mapred.crc_verifications_per_job",
      median([](const R& r) { return r.crc_verifications; }));
  Set(m, "mapred.intermediate_merges_per_job",
      median([](const R& r) { return r.intermediate_merges; }));
  Set(m, "mapred.combine.busy_task_s",
      median([](const R& r) { return r.combine_seconds; }));
  Set(m, "mapred.combine.spill_kept", median([](const R& r) {
        return Ratio(static_cast<double>(r.combine_spill_output_records),
                     static_cast<double>(r.combine_spill_input_records));
      }));
  Set(m, "mapred.combine.node_kept", median([](const R& r) {
        return Ratio(static_cast<double>(r.combine_node_output_records),
                     static_cast<double>(r.combine_node_input_records));
      }));
  Set(m, "mapred.shuffle.served_bytes_per_job",
      median([](const R& r) { return r.shuffle_serve_bytes; }));
  const bool codec = workload.conf.effective_map_output_codec() !=
                     mrmb::MapOutputCodec::kNone;
  Set(m, "io.block_codec.ratio", median([codec](const R& r) {
        return codec ? r.map_output_compression_ratio : 0.0;
      }));
  Set(m, "io.spill_store.write_amplification", median([](const R& r) {
        return Ratio(static_cast<double>(r.spilled_bytes),
                     static_cast<double>(r.map_output_wire_bytes));
      }));
  Set(m, "net.fetch.rpcs_per_job",
      median([](const R& r) { return r.transport_fetch_rpcs; }));
  Set(m, "net.fetch.partitions_per_rpc", median([](const R& r) {
        return Ratio(static_cast<double>(r.transport_fetched_partitions),
                     static_cast<double>(r.transport_fetch_rpcs));
      }));
  Set(m, "net.fetch.mean_ms",
      median([](const R& r) { return r.transport_fetch_mean_ms; }));
  Set(m, "net.fetch.p99_ms",
      median([](const R& r) { return r.transport_fetch_p99_ms; }));
  Set(m, "net.retransmits_per_job",
      median([](const R& r) { return r.transport_retransmits; }));

  Set(m, "io.kv_buffer.sort_s_per_mrec", probes.sort_s_per_mrec);
  Set(m, "io.merge.s_per_mrec", probes.merge_s_per_mrec);
  Set(m, "io.block_codec.compress_s_per_mb", probes.compress_s_per_mb);
  Set(m, "io.block_codec.decompress_s_per_mb", probes.decompress_s_per_mb);
  Set(m, "io.spill_store.put_s_per_mb", probes.put_s_per_mb);
  Set(m, "io.spill_store.read_s_per_mb", probes.read_s_per_mb);
  Set(m, "net.fetch_batch.s_per_mb", probes.fetch_batch_s_per_mb);
  Set(m, "rpc.header_bytes_per_partition", probes.header_bytes_per_partition);
  AddProcess(record, untraced.samples, traced.samples);
}

int RunFunctional(const Args& args, const Workload& workload) {
  // Setup: the program's one-time work and one warm-up job.
  const Result<mrmb::LocalJobResult> warm = RunPaperJob(workload);
  const double setup_s = NowSeconds();
  if (!warm.ok()) {
    std::fprintf(stderr, "perfbench: warm-up job failed: %s\n",
                 warm.status().ToString().c_str());
    return 1;
  }

  // The oracle: one reference job checked against RecordGenerator alone.
  // Its map-side and shuffle counters, and the warm-up job's output
  // counters, are what every later job must repeat exactly.
  RunRecord record;
  record.setup_s = setup_s;
  record.metrics = Declare(args.trace);
  FailureLog& log = record.log;
  const ProcessSnapshot baseline = TakeSnapshot(workload.conf.spill_dir);
  const Tallies oracle = ComputeOracle(workload);
  CapturedOutput captured;
  const Result<mrmb::LocalJobResult> reference =
      RunReferenceJob(workload, ReferenceReducer(workload), &captured);
  log.Record(CheckReference(workload, oracle, reference, captured, baseline),
             "reference job");
  const Counters data_plane =
      DataPlaneCounters(reference.ok() ? *reference : *warm);
  const Counters output = OutputCounters(*warm);
  Status warm_status = CompareCounters(data_plane, DataPlaneCounters(*warm));
  if (warm_status.ok() && reference.ok() && workload.summing_reducer) {
    // Both jobs end in SummingReducer, so the checked output is this one.
    warm_status = CompareCounters(OutputCounters(*reference), output);
  }
  log.Record(warm_status, "warm-up job");

  const Loop untraced =
      RunJobs(workload, args.trace ? args.seconds / 2 : args.seconds, nullptr,
              data_plane, output, baseline, &log);
  KeepSamples(&record, "", untraced.samples);
  record.elapsed_s = untraced.elapsed_s;
  record.logical_bytes = untraced.logical_bytes;
  if (!args.trace) return WriteResult(args, record);

  SpanRecorder recorder;
  const Loop traced = RunJobs(workload, args.seconds / 2, &recorder,
                              data_plane, output, baseline, &log);
  KeepSamples(&record, "traced_", traced.samples);
  const std::vector<Span> spans = recorder.spans();
  const int64_t streams = untraced.results.empty()
                              ? workload.conf.num_maps
                              : untraced.results.front().shuffle_streams;
  const int fan_in = static_cast<int>(
      std::min<int64_t>(streams, workload.conf.merge_factor));
  const Result<ProbeResults> probes =
      RunProbes(workload, fan_in, args.scratch);
  if (!probes.ok()) {
    std::fprintf(stderr, "perfbench: probes failed: %s\n",
                 probes.status().ToString().c_str());
    return 1;
  }
  AddFunctionalLayers(&record, workload, untraced, traced, spans, *probes);
  const Status written = WriteChromeTrace(spans, args.trace_out);
  if (!written.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
    return 1;
  }
  return WriteResult(args, record);
}

// ---- The simulated workload -------------------------------------------------

struct SimLoop {
  std::vector<SimJob> jobs;
  std::vector<JobSample> samples;
  std::vector<double> parse_s;
  double elapsed_s = 0;
  double configured_bytes = 0;
};

int RunSimulated(const Args& args, const Workload& workload) {
  // Setup: the program's one-time work and a warm-up sweep, so that the
  // first timed sweep finds every section's lazily built state in place.
  const Result<Sweep> warm = RunSweep(workload, nullptr, 0);
  const double setup_s = NowSeconds();
  const Status warm_status =
      !warm.ok()           ? warm.status()
      : warm->jobs.empty() ? Status::NotFound("the suite has no jobs")
                           : Status::OK();
  if (!warm_status.ok()) {
    std::fprintf(stderr, "perfbench: warm-up sweep failed: %s\n",
                 warm_status.ToString().c_str());
    return 1;
  }

  RunRecord record;
  record.setup_s = setup_s;
  record.metrics = Declare(args.trace);
  FailureLog& log = record.log;
  const ProcessSnapshot baseline = TakeSnapshot("");
  for (const SimJob& job : warm->jobs) {
    log.Record(job.status, "warm-up " + job.label);
  }
  // Every sweep must repeat the warm-up sweep bit for bit.
  const std::vector<SimJob>& reference = warm->jobs;
  const auto run = [&](double seconds, SpanRecorder* recorder) {
    SimLoop loop;
    int32_t sweep_index = 0;
    const double start = NowSeconds();
    do {
      Result<Sweep> sweep = RunSweep(workload, recorder, sweep_index++);
      if (!sweep.ok()) {
        log.Record(sweep.status(), "sweep");
        break;
      }
      if (sweep->jobs.size() != reference.size()) {
        log.Record(Status::DataLoss("the sweep ran a different number of jobs"),
                   "sweep");
      }
      const Status leaks = CheckNoLeaks(baseline, "");
      for (size_t i = 0; i < sweep->jobs.size(); ++i) {
        SimJob& job = sweep->jobs[i];
        Status status = job.status;
        if (status.ok() && (i >= reference.size() ||
                            job.digest != reference[i].digest)) {
          status = Status::DataLoss("result differs from the warm-up sweep's");
        }
        if (status.ok() && i + 1 == sweep->jobs.size()) status = leaks;
        log.Record(status, job.label);
        loop.samples.push_back(job.sample);
        loop.configured_bytes += static_cast<double>(job.shuffle_bytes);
        loop.jobs.push_back(std::move(job));
      }
      loop.parse_s.push_back(sweep->parse_s);
    } while (NowSeconds() - start < seconds);
    loop.elapsed_s = NowSeconds() - start;
    return loop;
  };

  const SimLoop untraced = run(args.trace ? args.seconds / 2 : args.seconds,
                               nullptr);
  KeepSamples(&record, "", untraced.samples);
  record.elapsed_s = untraced.elapsed_s;
  record.logical_bytes = untraced.configured_bytes;
  if (!args.trace) return WriteResult(args, record);

  SpanRecorder recorder;
  const SimLoop traced = run(args.seconds / 2, &recorder);
  KeepSamples(&record, "traced_", traced.samples);
  Metrics* m = &record.metrics;
  std::vector<double> build_s;
  std::vector<double> run_s;
  double sim_s = 0;
  double host_s = 0;
  double attempts = 0;
  for (const SimJob& job : traced.jobs) {
    build_s.push_back(job.build_s);
    run_s.push_back(job.run_s);
    sim_s += job.sim_s;
    host_s += job.run_s;
    attempts += static_cast<double>(job.task_attempts);
  }
  Set(m, "mrmb.suite.parse_s", Median(traced.parse_s));
  Set(m, "cluster.build_s.p50", Median(build_s));
  Set(m, "sim.run_s.p50", Median(run_s));
  Set(m, "sim.run_s.tail", TailOf(run_s));
  Set(m, "sim.task_attempts_per_job",
      Ratio(attempts, static_cast<double>(traced.jobs.size())));
  Set(m, "sim.sim_s_per_host_s", Ratio(sim_s, host_s));
  AddProcess(&record, untraced.samples, traced.samples);
  const Status written = WriteChromeTrace(recorder.spans(), args.trace_out);
  if (!written.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
    return 1;
  }
  return WriteResult(args, record);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::NowNanos();  // process start: the epoch of every timestamp
  const perfbench::Result<perfbench::Args> args =
      perfbench::ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", args.status().ToString().c_str());
    return 2;
  }
  const perfbench::Result<perfbench::Workload> workload =
      perfbench::MakeWorkload(args->workload, args->seed, args->scratch,
                              args->suite);
  if (!workload.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 workload.status().ToString().c_str());
    return 2;
  }
  return workload->simulated ? perfbench::RunSimulated(*args, *workload)
                             : perfbench::RunFunctional(*args, *workload);
}

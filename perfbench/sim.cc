// The simulated workload: one sweep parses the frozen paper suite and runs
// every measurement it describes, each on a fresh SimCluster.

#include <cstring>

#include "bench.h"
#include "cluster/sim_cluster.h"
#include "common/strings.h"
#include "mapred/sim_runner.h"
#include "mrmb/benchmark.h"
#include "mrmb/suite_spec.h"

namespace perfbench {

namespace {

// Hash over every field of the result: two runs agree only when they are
// bit-identical.
uint64_t Digest(const mrmb::SimJobResult& r) {
  std::string bytes;
  const auto put = [&bytes](const auto& value) {
    char raw[sizeof(value)];
    std::memcpy(raw, &value, sizeof(value));
    bytes.append(raw, sizeof(value));
  };
  put(r.job_seconds);
  put(r.submit_time);
  put(r.first_map_start);
  put(r.last_map_finish);
  put(r.first_fetch_start);
  put(r.last_fetch_finish);
  put(r.finish_time);
  put(r.map_phase_seconds);
  put(r.shuffle_phase_seconds);
  put(r.reduce_phase_seconds);
  put(r.total_records);
  put(r.total_shuffle_bytes);
  for (int64_t reducer : r.reducer_bytes) put(reducer);
  put(r.load_imbalance);
  put(r.map_side_spills);
  put(r.reduce_side_spill_bytes);
  put(r.cpu_busy_seconds);
  put(r.disk_bytes);
  put(r.network_bytes);
  put(r.dfs_network_bytes);
  put(r.dfs_disk_bytes);
  put(r.data_local_maps);
  put(r.node_crashes);
  put(r.node_recoveries);
  put(r.reexecuted_maps);
  put(r.fetch_retries);
  put(r.blacklisted_nodes);
  put(r.wasted_attempt_seconds);
  for (const mrmb::SimJobResult::TaskRecord& task : r.timeline) {
    put(task.id);
    put(task.is_map);
    put(task.node);
    put(task.attempts);
    put(task.start_time);
    put(task.finish_time);
  }
  put(r.total_task_attempts);
  return ValueHash(bytes);
}

// The simulated shuffle must be exactly the configured records, framed.
Status CheckShuffle(const mrmb::JobConf& conf,
                    const mrmb::BenchmarkOptions& options,
                    const mrmb::SimJobResult& result) {
  const auto frame = static_cast<int64_t>(
      mrmb::RecordGenerator(conf.record).framed_record_size());
  const int64_t want =
      static_cast<int64_t>(conf.num_maps) * conf.records_per_map * frame;
  if (result.total_shuffle_bytes == want && want >= options.shuffle_bytes) {
    return Status::OK();
  }
  return Status::DataLoss(mrmb::StringPrintf(
      "shuffled %lld bytes; configured %lld (%d maps x %lld records x %lld "
      "bytes)",
      static_cast<long long>(result.total_shuffle_bytes),
      static_cast<long long>(options.shuffle_bytes), conf.num_maps,
      static_cast<long long>(conf.records_per_map),
      static_cast<long long>(frame)));
}

}  // namespace

Result<Sweep> RunSweep(const Workload& workload, SpanRecorder* recorder,
                       int32_t sweep) {
  Sweep out;
  const int32_t sweep_span = recorder != nullptr ? recorder->NewId() : 0;
  const int32_t thread = ThreadIndex();
  const int64_t sweep_start = NowNanos();
  MRMB_ASSIGN_OR_RETURN(const mrmb::SuiteSpec spec,
                        mrmb::ParseSuiteSpec(workload.suite_text));
  std::vector<mrmb::ResolvedSection> sections;
  for (const mrmb::SuiteSection& section : spec.sections) {
    MRMB_ASSIGN_OR_RETURN(mrmb::ResolvedSection resolved,
                          mrmb::ResolveSection(section));
    sections.push_back(std::move(resolved));
  }
  const int64_t parsed = NowNanos();
  out.parse_s = static_cast<double>(parsed - sweep_start) * 1e-9;
  if (recorder != nullptr) {
    recorder->Add({.name = "mrmb.suite.parse",
                   .start_ns = sweep_start,
                   .end_ns = parsed,
                   .id = recorder->NewId(),
                   .parent = sweep_span,
                   .job = sweep,
                   .thread = thread});
  }

  for (const mrmb::ResolvedSection& section : sections) {
    for (size_t series = 0; series < section.options.size(); ++series) {
      for (size_t x = 0; x < section.options[series].size(); ++x) {
        mrmb::BenchmarkOptions options = section.options[series][x];
        options.seed = workload.seed;
        const mrmb::JobConf conf = options.ToJobConf();
        SimJob job;
        job.label = section.name + "/" + section.series_labels[series] + "/" +
                    section.x_labels[x];
        job.shuffle_bytes = options.shuffle_bytes;

        Result<mrmb::SimJobResult> result = Status::Internal("not run");
        const Usage before = StartSample();
        const int64_t start = NowNanos();
        int64_t built = 0;
        int64_t ran = 0;
        {
          mrmb::SimCluster cluster(options.ToClusterSpec());
          built = NowNanos();
          mrmb::SimJobRunner runner(&cluster, conf, options.cost);
          result = runner.Run();
          ran = NowNanos();
        }
        job.sample = FinishSample(start, before);
        job.build_s = static_cast<double>(built - start) * 1e-9;
        job.run_s = static_cast<double>(ran - built) * 1e-9;
        if (result.ok()) {
          job.sim_s = result->job_seconds;
          job.task_attempts = result->total_task_attempts;
          job.digest = Digest(*result);
          job.status = CheckShuffle(conf, options, *result);
        } else {
          job.status = result.status();
        }
        if (recorder != nullptr) {
          const int32_t id = recorder->NewId();
          recorder->Add({.name = "cluster.build",
                         .start_ns = start,
                         .end_ns = built,
                         .id = recorder->NewId(),
                         .parent = id,
                         .job = sweep,
                         .thread = thread});
          recorder->Add({.name = "sim.run",
                         .start_ns = built,
                         .end_ns = ran,
                         .id = recorder->NewId(),
                         .parent = id,
                         .job = sweep,
                         .thread = thread});
          recorder->Add({.name = "sim.job",
                         .start_ns = start,
                         .end_ns = start + static_cast<int64_t>(
                                               job.sample.wall_s * 1e9),
                         .id = id,
                         .parent = sweep_span,
                         .job = sweep,
                         .thread = thread});
        }
        out.jobs.push_back(std::move(job));
      }
    }
  }
  if (recorder != nullptr) {
    recorder->Add({.name = "mrmb.sweep",
                   .start_ns = sweep_start,
                   .end_ns = NowNanos(),
                   .id = sweep_span,
                   .job = sweep,
                   .thread = thread});
  }
  return out;
}

}  // namespace perfbench

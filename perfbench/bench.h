// perfbench — the repository's end-to-end and per-layer benchmark.
//
// The benchmark drives mrmb only through public entry points: functional
// jobs through LocalJobRunner::Run with the stand-alone job's classes, the
// simulator through ParseSuiteSpec / ResolveSection / SimCluster /
// SimJobRunner, and the layer probes through io/ and net/ functions. Spans
// are recorded in these files around the calls into each layer; the engine
// itself is not instrumented. README.md says why each workload exists and
// what each metric means.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "io/record_gen.h"
#include "mapred/api.h"
#include "mapred/job_conf.h"
#include "mapred/local_runner.h"

namespace perfbench {

using mrmb::Result;
using mrmb::Status;

// ---- Measurement ----------------------------------------------------------

// Steady-clock nanoseconds since the first call. main() calls it on entry,
// so it is also the time since the process started.
int64_t NowNanos();
inline double NowSeconds() { return static_cast<double>(NowNanos()) * 1e-9; }

// Process-wide CPU time (all threads, joined ones included), minor page
// faults and context switches, from getrusage(RUSAGE_SELF).
struct Usage {
  double cpu_s = 0;
  int64_t minor_faults = 0;
  int64_t ctx_switches = 0;
};
Usage ReadUsage();
// Restarts the process's peak-resident-set mark at its current size.
void ResetPeakRss();
// The process's peak resident set since the last reset, in MiB.
double PeakRssMb();

// One job as the closed loop saw it: its wall time, the usage it added,
// and the process's peak resident set while it ran.
struct JobSample {
  double wall_s = 0;
  Usage usage;
  double peak_rss_mb = 0;
};
// Opens a sample: trims the heap, resets the peak mark and reads the usage
// counters.
Usage StartSample();
// Closes a sample opened with `before = StartSample(); start = NowNanos()`.
JobSample FinishSample(int64_t start_ns, const Usage& before);

double Median(std::vector<double> values);  // 0 when empty

// The value at the highest percentile with at least ten samples beyond it;
// with ten samples or fewer there is none, and it is the maximum. 0 when
// empty.
double TailOf(std::vector<double> values);

// ---- Workloads ------------------------------------------------------------

struct Workload {
  std::string name;
  bool simulated = false;
  // Functional workloads: the job, and whether its final reducer sums
  // (skew-long-combine) or discards the values (the paper's job).
  mrmb::JobConf conf;
  bool summing_reducer = false;
  // The simulated workload: the frozen suite text and the seed every
  // simulated job runs with.
  std::string suite_text;
  uint64_t seed = 0;
};

// `scratch` is a directory the benchmark owns; the disk workload's spill
// extents (conf.spill_dir, "" on the others) and the probes' stores live
// under it. `suite_path` is the frozen copy of configs/paper.suite.
Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                              const std::string& scratch,
                              const std::string& suite_path);

// The options GeneratingMapper gives RecordGenerator: the job's seed, so
// equal key ids give equal key bytes in every map.
mrmb::RecordGenerator::Options GeneratorOptions(const mrmb::JobConf& conf);

// ---- Spans ----------------------------------------------------------------

inline constexpr char kJobSpan[] = "mrmb.job";
inline constexpr char kMapFnSpan[] = "mapred.map_fn";
inline constexpr char kRecordGenSpan[] = "io.record_gen";
inline constexpr char kEmitSpan[] = "mapred.emit";
inline constexpr char kReduceFnSpan[] = "mapred.reduce_fn";
inline constexpr char kNextSpan[] = "io.merge.next";

// One traced interval. Calls too short to time one by one (the record
// generator, Emit, ValueIterator::Next) are timed in batches and kept as one
// span per parent and kind: the kinds are laid end to end from the parent's
// start, each lasting its summed time, and `calls` counts the timed batches.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t calls = 1;
  int32_t id = 0;
  int32_t parent = -1;
  int32_t job = 0;
  int32_t thread = 0;
};

// Small id of the calling thread, stable for the thread's life.
int32_t ThreadIndex();

// Thread-safe in-memory span store, written out once at the end.
class SpanRecorder {
 public:
  int32_t NewId();
  void Add(const Span& span);
  std::vector<Span> spans() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  int32_t next_id_ = 0;      // guarded by mu_
};

// Writes spans as Chrome trace-event JSON (chrome://tracing, Perfetto).
Status WriteChromeTrace(const std::vector<Span>& spans,
                        const std::string& path);

// One traced functional job, layer by layer. Busy figures are task-s,
// summed across concurrent tasks. `wall_shares` splits the job's wall time
// instead: each instant is divided equally among the Map and Reduce calls
// open at that instant, each call's part is divided among its layers in
// proportion to their time, and instants with no call open are
// "unattributed". The shares sum to 1.
struct JobLedger {
  double wall_s = 0;
  double record_gen_busy_s = 0;
  double emit_busy_s = 0;
  double map_fn_busy_s = 0;
  double next_busy_s = 0;
  double reduce_fn_self_s = 0;
  double unattributed_share = 0;
  std::map<std::string, double> wall_shares;
};

JobLedger BuildLedger(const std::vector<Span>& spans, int32_t job);

// ---- Functional jobs ------------------------------------------------------

// The timed job: NullInputFormat -> GeneratingMapper -> DiscardingReducer
// (SummingReducer when the workload sums) -> NullOutputFormat.
Result<mrmb::LocalJobResult> RunPaperJob(const Workload& workload);

// The same job with an instrumented mapper and reducer; records the job's
// spans under `job`.
Result<mrmb::LocalJobResult> RunTracedJob(const Workload& workload,
                                          SpanRecorder* recorder,
                                          int32_t job);

// Reduce output in commit order.
struct CapturedOutput {
  std::vector<std::pair<std::string, std::string>> records;
};

// The oracle-checked job: GeneratingMapper, `reducer`, and an OutputFormat
// that captures every record.
Result<mrmb::LocalJobResult> RunReferenceJob(
    const Workload& workload, const mrmb::ReducerFactory& reducer,
    CapturedOutput* output);

// ---- Oracle and checks ----------------------------------------------------

// 64-bit hash of a value's bytes, independent of the engine's checksums.
uint64_t ValueHash(std::string_view bytes);

// What one key must come out with: its record count and the wrapping sum of
// ValueHash over its values, or (summing workloads) the sum of its values.
struct KeyTally {
  int64_t count = 0;
  uint64_t digest = 0;
  int64_t sum = 0;

  bool operator==(const KeyTally&) const = default;
};
using Tallies = std::map<std::string, KeyTally>;  // by serialized key

// Emits one (key, [count, digest]) record per group, as KeyTally fields.
class DigestingReducer final : public mrmb::Reducer {
 public:
  void Reduce(std::string_view key, mrmb::ValueIterator* values,
              mrmb::ReduceContext* context) override;
};

// DigestingReducer, or SummingReducer when the workload sums.
mrmb::ReducerFactory ReferenceReducer(const Workload& workload);

// What the job must output, from RecordGenerator alone.
Tallies ComputeOracle(const Workload& workload);
// What a reference job did output, folded per key across reducers.
Result<Tallies> TallyOutput(const Workload& workload,
                            const CapturedOutput& output);
Status CompareTallies(const Tallies& want, const Tallies& got);

// Named counters that repeat exactly on every clean run of one job.
using Counters = std::vector<std::pair<std::string, int64_t>>;
// Map side and shuffle: the same whichever reducer runs.
Counters DataPlaneCounters(const mrmb::LocalJobResult& result);
// Reduce output: groups, records, bytes and the output fingerprint.
Counters OutputCounters(const mrmb::LocalJobResult& result);
Status CompareCounters(const Counters& want, const Counters& got);

// Process resources every job must hand back.
struct ProcessSnapshot {
  int64_t fds = 0;
  int64_t threads = 0;
  int64_t spill_entries = 0;

  bool operator==(const ProcessSnapshot&) const = default;
};
ProcessSnapshot TakeSnapshot(const std::string& spill_root);
// Compares against `baseline`, re-reading for a few milliseconds so that a
// thread which was joined but has not left /proc yet is not reported.
Status CheckNoLeaks(const ProcessSnapshot& baseline,
                    const std::string& spill_root);

// A reference job passes when it returned OK, its output matches the
// oracle, and it leaked nothing.
Status CheckReference(const Workload& workload, const Tallies& oracle,
                      const Result<mrmb::LocalJobResult>& result,
                      const CapturedOutput& output,
                      const ProcessSnapshot& baseline);

// A timed or traced job passes when it returned OK, repeated the reference
// counters exactly, and leaked nothing.
Status CheckJob(const Result<mrmb::LocalJobResult>& result,
                const Counters& data_plane, const Counters& output,
                const ProcessSnapshot& baseline,
                const std::string& spill_root);

// Attempted and failed jobs, with the first few failure messages.
class FailureLog {
 public:
  void Record(const Status& status, const std::string& job);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> messages_;
};

// ---- Probes ---------------------------------------------------------------

// Short single-thread measurements of one layer each, on the workload's own
// records. A layer the workload bypasses reads 0.
struct ProbeResults {
  double sort_s_per_mrec = 0;
  double merge_s_per_mrec = 0;
  double compress_s_per_mb = 0;
  double decompress_s_per_mb = 0;
  double put_s_per_mb = 0;
  double read_s_per_mb = 0;
  double fetch_batch_s_per_mb = 0;
  // Response bytes beyond the partition bodies, per fetched partition.
  double header_bytes_per_partition = 0;
};

// `fan_in` is the width of the reduce side's final merge.
Result<ProbeResults> RunProbes(const Workload& workload, int fan_in,
                               const std::string& scratch);

// ---- The simulated workload -----------------------------------------------

// One simulated measurement.
struct SimJob {
  std::string label;          // section/network/shuffle
  JobSample sample;           // SimCluster construction, run and teardown
  double build_s = 0;         // SimCluster construction
  double run_s = 0;           // SimJobRunner::Run
  double sim_s = 0;           // simulated job seconds
  int64_t task_attempts = 0;
  int64_t shuffle_bytes = 0;  // as configured
  uint64_t digest = 0;        // of the whole SimJobResult
  Status status;  // OK, with exactly the configured shuffle bytes
};

struct Sweep {
  double parse_s = 0;  // ParseSuiteSpec plus ResolveSection
  std::vector<SimJob> jobs;
};

// Parses and resolves the suite and runs its jobs in order, each on a fresh
// SimCluster. Records spans under `sweep` when `recorder` is set.
Result<Sweep> RunSweep(const Workload& workload, SpanRecorder* recorder,
                       int32_t sweep);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_

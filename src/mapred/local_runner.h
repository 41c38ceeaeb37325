// LocalJobRunner — functional, in-process execution of a MapReduce job,
// hardened as a task-attempt engine with a pipelined shuffle.
//
// Runs every phase for real on real bytes: mappers emit serialized records
// into a bounded KvBuffer (spilling and merging like Hadoop's map side), an
// event-driven shuffle publishes each committed map output to per-reduce
// fetch queues (reducers launch once `reduce_slowstart` of the maps have
// committed and background-merge fetched segments so the final merge sees
// at most `merge_factor` streams — Hadoop's ShuffleScheduler/MergeManager
// shape), and reducers consume a k-way merged, grouped stream. Map and
// reduce tasks run as *attempts* on a bounded worker pool
// (`JobConf::local_threads`):
//
//   - An attempt that fails (injected fault, oversized record, corrupt
//     input) returns a Status instead of aborting the process, and is
//     retried up to `max_task_attempts` times.
//   - A watchdog cancels attempts that outlive `task_timeout_ms`
//     (cooperatively, at record boundaries and injected delays) and
//     reschedules them — Hadoop's task-timeout semantics.
//   - Every map-output partition range is sealed with a CRC32C at
//     spill/merge time and verified at shuffle-read time; a mismatch is
//     DataLoss and re-executes the producing map, never feeds the reducer
//     corrupt bytes (Hadoop's IFile checksum semantics).
//   - `JobConf::local_fault_plan` injects deterministic faults so all three
//     paths are testable end-to-end.
//
// Results are deterministic: attempt behaviour depends only on (task,
// attempt), fault decisions come from per-attempt RNG streams, and all
// aggregation/commit happens in task order — so any `local_threads` value
// and any scheduling produce byte-identical LocalJobResult counters and
// reduce output. For paper-scale performance experiments use SimJobRunner
// (sim_runner.h), which models time instead of burning it.

#ifndef MRMB_MAPRED_LOCAL_RUNNER_H_
#define MRMB_MAPRED_LOCAL_RUNNER_H_

#include <vector>

#include "common/status.h"
#include "mapred/api.h"
#include "mapred/partitioner.h"

namespace mrmb {

// Task-scoped partitioner factory; each map task gets a fresh instance.
using PartitionerFactory =
    std::function<std::unique_ptr<Partitioner>(int task_id)>;

struct LocalJobResult {
  int64_t map_input_records = 0;
  int64_t map_output_records = 0;
  // Records removed by per-spill combining (0 without a combiner).
  int64_t combine_removed_records = 0;

  // ---- Combine pipeline (per-stage input/output accounting; all 0 when
  // the stage did not run) -----------------------------------------------
  // Stage 1 — per-spill combine: every sorted spill of every map attempt,
  // before sealing (Hadoop's classic combiner pass).
  int64_t combine_spill_input_records = 0;
  int64_t combine_spill_output_records = 0;
  int64_t combine_spill_input_bytes = 0;
  int64_t combine_spill_output_bytes = 0;
  // Stage 2 — merge-time combine: re-run over the merged output of map
  // attempts with >= min_spills_for_combine spills, and over every run the
  // reduce-side background merger folds.
  int64_t combine_merge_input_records = 0;
  int64_t combine_merge_output_records = 0;
  int64_t combine_merge_input_bytes = 0;
  int64_t combine_merge_output_bytes = 0;
  int64_t combine_reduce_input_records = 0;
  int64_t combine_reduce_output_records = 0;
  int64_t combine_reduce_input_bytes = 0;
  int64_t combine_reduce_output_bytes = 0;
  // Stage 3 — in-node combine: blocks of node_combine_min_maps co-located
  // map outputs merged + re-combined into one shuffle stream
  // (mapred/node_combiner.h). `node_combines` counts combined segments
  // built, including rebuilds after a member re-executed.
  int64_t combine_node_input_records = 0;
  int64_t combine_node_output_records = 0;
  int64_t combine_node_input_bytes = 0;
  int64_t combine_node_output_bytes = 0;
  int64_t node_combines = 0;
  // Shuffle streams the reduce side actually fetched from (== num_maps
  // without in-node combining; ceil(num_maps / node_combine_min_maps) with
  // it).
  int64_t shuffle_streams = 0;
  // CPU seconds spent inside combiner Reduce() calls, all stages (the
  // calibration source for the simulator's combine_cpu_per_record).
  double combine_seconds = 0;
  // Wire bytes the shuffle serves at the final generations (sum over the
  // served streams of their partition wire lengths). Without in-node
  // combining this equals map_output_wire_bytes — which already reflects
  // per-spill and merge-time combining; with it, the combined segments'
  // (smaller) wire bytes are what reducers fetch.
  int64_t shuffle_serve_bytes = 0;
  // 1 - shuffle_serve_bytes / map_output_wire_bytes: the extra fraction of
  // wire bytes the in-node stage removed on top of the map-side stages
  // (0 when in-node combining is off). Compare shuffle_serve_bytes across
  // combine-off/on runs for the whole pipeline's savings.
  double shuffle_savings_ratio = 0;
  // IFile-framed intermediate bytes before compression (the logical
  // shuffle payload).
  int64_t map_output_bytes = 0;
  // Bytes the simulated wire actually carries: codec frames when
  // map_output_codec is set, identical to map_output_bytes otherwise.
  int64_t map_output_wire_bytes = 0;
  // map_output_wire_bytes / map_output_bytes — the job's *measured*
  // compression ratio (1.0 with no codec; compare against the simulator's
  // MeasureCodecRatio sample estimate).
  double map_output_compression_ratio = 1.0;
  int64_t spill_count = 0;
  // Per-reduce shuffle load.
  std::vector<int64_t> reducer_input_records;
  std::vector<int64_t> reducer_input_bytes;
  int64_t reduce_groups = 0;
  int64_t reduce_input_records = 0;
  // Records/bytes handed to the OutputFormat.
  int64_t output_records = 0;
  int64_t output_bytes = 0;

  // ---- Task-attempt / fault-tolerance counters -------------------------
  // Attempts started (successful + failed + re-executed).
  int64_t map_attempts = 0;
  int64_t reduce_attempts = 0;
  // Additional attempts scheduled after a failure or lost output.
  int64_t map_retries = 0;
  int64_t reduce_retries = 0;
  // Shuffle-read CRC32C mismatches caught (one per corrupt (reduce, map)
  // partition read observed).
  int64_t corruptions_detected = 0;
  // Attempts cancelled by the watchdog deadline.
  int64_t watchdog_timeouts = 0;

  // ---- Shuffle-pipeline counters ---------------------------------------
  // CRC32C partition verifications performed at fetch time. The verify
  // cache makes this (maps x reduces) per committed generation instead of
  // per reduce *attempt*; timing-dependent only when maps re-execute.
  int64_t crc_verifications = 0;
  // Background merge folds run by reduce-side mergers (merge_factor
  // bounding the final fan-in). Deterministic on clean runs: reduces x
  // plan nodes.
  int64_t intermediate_merges = 0;
  // ---- Disk spill engine counters (all 0 when the engine is off) -------
  // True when the run opened a spill store (spill_dir set or
  // spill_budget_bytes >= 0); gates report sections.
  bool spill_engine_enabled = false;
  // Physical extent bytes written by committed map attempts (spills plus
  // final outputs, after block compression and framing).
  int64_t spilled_bytes = 0;
  // Extent files written by committed map attempts.
  int64_t spill_extents = 0;
  // Writes that fell back to RAM residency on ENOSPC/EIO instead of
  // failing the attempt.
  int64_t spill_degradations = 0;
  // ARC block-cache traffic across the whole store. Deterministic at
  // local_threads=1; timing-dependent otherwise (interleaving decides
  // which reader misses).
  int64_t spill_cache_hits = 0;
  int64_t spill_cache_misses = 0;
  int64_t spill_cache_evictions = 0;
  double spill_cache_hit_rate = 0;  // hits / (hits + misses), 0 if idle
  // Scrub/repair taxonomy: single-bit frames healed in place, frames
  // declared unrecoverable (each one triggered a map re-execution or a
  // failed attempt), injected short reads transparently completed, reads
  // that kept failing after retries, and frames visited by scrub passes.
  int64_t spill_blocks_repaired = 0;
  int64_t spill_blocks_lost = 0;
  int64_t spill_short_reads = 0;
  int64_t spill_read_errors = 0;
  int64_t spill_scrubbed_blocks = 0;

  // Fetched segments dropped because the producing map re-executed after
  // the fetch (generation mismatch). Timing-dependent under faults: a
  // reduce that had not fetched the stale generation yet fetches the new
  // one directly and never counts here.
  int64_t stale_fetches_invalidated = 0;

  // ---- Real-socket shuffle transport (all 0 with shuffle_transport =
  // inproc) -------------------------------------------------------------
  // True when the shuffle ran over the loopback TCP data plane; gates the
  // report section.
  bool transport_enabled = false;
  // Batch request messages the client put on the wire (including retries)
  // and response bytes that crossed the wire (headers + bodies).
  int64_t transport_fetch_rpcs = 0;
  // Partitions fetched. Many partitions ride one batch request, so this
  // exceeds transport_fetch_rpcs — the ratio is the batching amortization.
  int64_t transport_fetched_partitions = 0;
  int64_t transport_wire_bytes = 0;
  // Fetches re-issued after a transport-level failure (dropped connection,
  // torn frame, short body).
  int64_t transport_retransmits = 0;
  // Times a batch fetch resumed on another connection after its own died
  // mid-fetch.
  int64_t transport_reconnects = 0;
  // Server-side refusals: generation mismatch (re-executed map) and
  // not-yet-published map output.
  int64_t transport_stale_refusals = 0;
  // Zero-copy serve taxonomy: writev from the sealed RAM segment vs
  // sendfile straight from a durable extent file.
  int64_t transport_ram_serves = 0;
  int64_t transport_file_serves = 0;
  // Reassembly-buffer pool effectiveness (hits / lookups) and the
  // high-water AIMD in-flight window the batched client reached.
  double transport_pool_hit_rate = 0;
  int64_t transport_window_peak = 0;
  // Client-observed fetch latency (request write to last body byte).
  double transport_fetch_mean_ms = 0;
  double transport_fetch_p99_ms = 0;

  // ---- Crash-safe jobs (journal/resume; zero when the journal is off) --
  // True when the run wrote a write-ahead job journal (job_journal/resume).
  bool journal_enabled = false;
  // True when this run resumed from an existing journal (--resume).
  bool resumed = false;
  // Committed map outputs re-adopted from durable spill extents instead of
  // re-executed, and committed reduce outputs re-used from part files. The
  // attempt counters above count THIS run only, so on a resume
  // (attempts re-run) + (tasks adopted) proves only uncommitted work ran.
  int64_t maps_adopted = 0;
  int64_t reduces_adopted = 0;
  // Stale files garbage-collected on startup: orphan `*.tmp` extents,
  // unreferenced extent files, `_temporary` attempt output, and spill
  // directories left by dead processes.
  int64_t orphans_swept = 0;
  // Journal traffic: records replayed from the valid prefix at resume, and
  // records this run durably appended (including its run-start).
  int64_t journal_records_replayed = 0;
  int64_t journal_records_appended = 0;

  // CRC32C over the committed reduce outputs in task order — a
  // byte-identity probe across runs (a crashed-then-resumed job must
  // reproduce the uninterrupted run's fingerprint exactly). Computed for
  // every job, journal or not.
  uint32_t output_fingerprint = 0;

  // ---- Phase breakdown (host wall time, diagnostic only) ---------------
  // Job start until the last initial map commit.
  double map_phase_seconds = 0;
  // Reduce-side time spent waiting for map outputs to commit.
  double shuffle_wait_seconds = 0;
  // Reduce-side fetch verification + background merge work.
  double shuffle_merge_seconds = 0;
  // Final merge + reduce function execution.
  double reduce_compute_seconds = 0;
  // Fraction of reduce-side time that ran while the map phase was still in
  // progress. Reduce-side time is shuffle_merge_seconds plus
  // reduce_compute_seconds plus the in-process plane's modelled transfer
  // (fetch_latency_ms, fetch_bandwidth_mbps), which is slept rather than
  // busy and so is in neither of the two. 0 when the shuffle never
  // overlaps (reduce_slowstart = 1.0).
  double overlap_efficiency = 0;

  // Real (host) execution time of Run().
  double wall_seconds = 0;
};

class LocalJobRunner {
 public:
  explicit LocalJobRunner(JobConf conf);

  // Executes the job. All pointers must outlive the call. Returns counters
  // or the first validation/configuration error. `partitioner_factory`
  // defaults (when null) to the benchmark partitioner selected by
  // conf.pattern; ordinary jobs (e.g. word count) pass a HashPartitioner
  // factory.
  // `combiner_factory` (optional) installs the combine pipeline: a
  // per-spill pass over every sorted spill before it is sealed (Hadoop's
  // job.setCombinerClass semantics), a merge-time pass over multi-spill map
  // output and reduce-side merge folds when conf.min_spills_for_combine >
  // 0, and the in-node pass across blocks of co-located map outputs when
  // conf.node_combine_min_maps >= 2 (mapred/node_combiner.h). The combiner
  // must be associative and commutative for the merge-time/in-node stages
  // to preserve job output.
  //
  // Threading contract: with conf.local_threads > 1, InputFormat::
  // CreateReader and the mapper/reducer/partitioner/combiner factories are
  // called from concurrent task attempts and must be thread-safe (returning
  // a fresh instance per call, as all the in-tree ones do). OutputFormat is
  // only touched from the coordinating thread: reduce output is staged per
  // attempt and committed in task order after the attempt succeeds, so
  // failed attempts never produce partial output.
  Result<LocalJobResult> Run(InputFormat* input_format,
                             const MapperFactory& mapper_factory,
                             const ReducerFactory& reducer_factory,
                             OutputFormat* output_format,
                             const PartitionerFactory& partitioner_factory =
                                 nullptr,
                             const ReducerFactory& combiner_factory =
                                 nullptr);

  // Convenience: runs the paper's stand-alone micro-benchmark job
  // (NullInputFormat + GeneratingMapper + DiscardingReducer +
  // NullOutputFormat) under `conf`, with the built-in combiner selected by
  // conf.combiner installed.
  static Result<LocalJobResult> RunStandalone(const JobConf& conf);

  const JobConf& conf() const { return conf_; }

 private:
  JobConf conf_;
};

}  // namespace mrmb

#endif  // MRMB_MAPRED_LOCAL_RUNNER_H_

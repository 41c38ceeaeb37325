#include "mrmb/report.h"

#include <algorithm>
#include <iomanip>

#include "common/strings.h"
#include "common/units.h"
#include "io/checksum.h"

namespace mrmb {

void PrintBenchmarkReport(const BenchmarkResult& result, std::ostream* out) {
  const BenchmarkOptions& options = result.options;
  const SimJobResult& job = result.job;
  std::ostream& os = *out;

  os << "=== mrmb micro-benchmark "
        "==============================================\n";
  os << "Benchmark            : " << DistributionPatternName(options.pattern)
     << "\n";
  os << "Data type            : " << DataTypeName(options.data_type) << "\n";
  os << "Key / value size     : " << FormatBytes(options.key_size) << " / "
     << FormatBytes(options.value_size) << "\n";
  os << "Shuffle data         : " << FormatBytes(job.total_shuffle_bytes)
     << " (" << job.total_records << " records)\n";
  os << "Maps / reduces       : " << options.num_maps << " / "
     << options.num_reduces << "\n";
  os << "Cluster              : " << ClusterKindName(options.cluster) << ", "
     << options.num_slaves << " slaves\n";
  os << "Network              : " << options.network.name << "\n";
  os << "Scheduler            : " << SchedulerKindName(options.scheduler)
     << "\n";
  os << "---------------------------------------------------------------"
        "----\n";
  os << StringPrintf("Job execution time   : %.3f s\n", job.job_seconds);
  os << StringPrintf(
      "  map phase          : %.3f s\n  shuffle phase      : %.3f s\n"
      "  reduce tail        : %.3f s\n",
      job.map_phase_seconds, job.shuffle_phase_seconds,
      job.reduce_phase_seconds);
  os << StringPrintf("Reducer load imbalance (max/mean): %.2f\n",
                     job.load_imbalance);
  os << StringPrintf("Map-side spills      : %lld\n",
                     static_cast<long long>(job.map_side_spills));
  os << "Reduce-side spill    : "
     << FormatBytes(job.reduce_side_spill_bytes) << "\n";
  os << StringPrintf("CPU busy (all nodes) : %.1f core-seconds\n",
                     job.cpu_busy_seconds);
  os << "Disk traffic         : "
     << FormatBytes(static_cast<int64_t>(job.disk_bytes)) << "\n";
  os << "Network traffic      : "
     << FormatBytes(static_cast<int64_t>(job.network_bytes)) << "\n";
  if (!result.node0_samples.empty()) {
    os << StringPrintf(
        "Resource utilization (slave 0): mean CPU %.1f%%, peak RX %.1f "
        "MB/s over %zu samples\n",
        result.mean_cpu_pct, result.peak_rx_MBps,
        result.node0_samples.size());
  }
  if (job.node_crashes > 0 || job.node_recoveries > 0 ||
      job.reexecuted_maps > 0 || job.fetch_retries > 0 ||
      job.blacklisted_nodes > 0 || job.wasted_attempt_seconds > 0) {
    os << "--- fault & recovery ------------------------------------------"
          "----\n";
    os << StringPrintf("Node crashes         : %d (%d recovered)\n",
                       job.node_crashes, job.node_recoveries);
    os << StringPrintf("Re-executed maps     : %d\n", job.reexecuted_maps);
    os << StringPrintf("Shuffle fetch retries: %d\n", job.fetch_retries);
    os << StringPrintf("Blacklisted nodes    : %d\n", job.blacklisted_nodes);
    os << StringPrintf("Wasted attempt time  : %.3f s\n",
                       job.wasted_attempt_seconds);
  }
  os << "================================================================="
        "====\n";
}

void PrintLocalJobReport(const BenchmarkOptions& options,
                         const LocalJobResult& result, std::ostream* out) {
  std::ostream& os = *out;
  os << "=== mrmb micro-benchmark (functional run) "
        "=============================\n";
  os << "Benchmark            : " << DistributionPatternName(options.pattern)
     << "\n";
  os << "Data type            : " << DataTypeName(options.data_type) << "\n";
  os << "Key / value size     : " << FormatBytes(options.key_size) << " / "
     << FormatBytes(options.value_size) << "\n";
  os << "Maps / reduces       : " << options.num_maps << " / "
     << options.num_reduces << "\n";
  os << "Worker threads       : " << options.local_threads << "\n";
  if (options.sort_threads != 1) {
    os << "Sorter threads       : "
       << (options.sort_threads > 0 ? options.sort_threads
                                    : options.local_threads)
       << " per map attempt\n";
  }
  if (options.task_timeout_ms > 0) {
    os << StringPrintf("Watchdog deadline    : %lld ms\n",
                       static_cast<long long>(options.task_timeout_ms));
  }
  os << "Map output checksums : "
     << (options.checksum_map_output
             ? std::string("on (CRC32C, ") + Crc32cImplName() + " kernel)"
             : std::string("off"))
     << "\n";
  {
    const MapOutputCodec codec =
        options.ToJobConf().effective_map_output_codec();
    os << "Map output codec     : " << MapOutputCodecName(codec) << "\n";
  }
  os << StringPrintf("Reduce slow-start    : %.2f (merge factor %d)\n",
                     options.reduce_slowstart, options.merge_factor);
  os << "---------------------------------------------------------------"
        "----\n";
  os << StringPrintf("Wall time            : %.3f s\n", result.wall_seconds);
  os << StringPrintf("Map input records    : %lld\n",
                     static_cast<long long>(result.map_input_records));
  os << StringPrintf("Map output records   : %lld (",
                     static_cast<long long>(result.map_output_records))
     << FormatBytes(result.map_output_bytes) << " framed)\n";
  if (result.map_output_wire_bytes != result.map_output_bytes) {
    os << "Map output on wire   : " << FormatBytes(result.map_output_wire_bytes)
       << StringPrintf(" (measured ratio %.3f)\n",
                       result.map_output_compression_ratio);
  }
  os << StringPrintf("Map-side spills      : %lld\n",
                     static_cast<long long>(result.spill_count));
  if (result.combine_removed_records > 0) {
    os << StringPrintf("Combine removed      : %lld records\n",
                       static_cast<long long>(
                           result.combine_removed_records));
  }
  if (result.combine_spill_input_records > 0 ||
      result.combine_merge_input_records > 0 ||
      result.combine_reduce_input_records > 0 || result.node_combines > 0) {
    os << "--- combiner --------------------------------------------------"
          "----\n";
    const auto stage_line = [&os](const char* label, int64_t in_records,
                                  int64_t out_records, int64_t in_bytes,
                                  int64_t out_bytes) {
      if (in_records <= 0) return;
      os << StringPrintf(
          "%s: %lld -> %lld records (%.1f%% kept, ", label,
          static_cast<long long>(in_records),
          static_cast<long long>(out_records),
          100.0 * static_cast<double>(out_records) /
              static_cast<double>(in_records))
         << FormatBytes(in_bytes) << " -> " << FormatBytes(out_bytes)
         << ")\n";
    };
    stage_line("Per-spill combine    ", result.combine_spill_input_records,
               result.combine_spill_output_records,
               result.combine_spill_input_bytes,
               result.combine_spill_output_bytes);
    stage_line("Merge-time combine   ", result.combine_merge_input_records,
               result.combine_merge_output_records,
               result.combine_merge_input_bytes,
               result.combine_merge_output_bytes);
    stage_line("Reduce-merge combine ", result.combine_reduce_input_records,
               result.combine_reduce_output_records,
               result.combine_reduce_input_bytes,
               result.combine_reduce_output_bytes);
    stage_line("In-node combine      ", result.combine_node_input_records,
               result.combine_node_output_records,
               result.combine_node_input_bytes,
               result.combine_node_output_bytes);
    if (result.node_combines > 0) {
      os << StringPrintf("In-node builds       : %lld (%d maps -> %lld "
                         "shuffle streams)\n",
                         static_cast<long long>(result.node_combines),
                         options.num_maps,
                         static_cast<long long>(result.shuffle_streams));
    }
    os << StringPrintf("Combiner CPU         : %.3f s\n",
                       result.combine_seconds);
    os << "Shuffle served       : " << FormatBytes(result.shuffle_serve_bytes)
       << StringPrintf(" (wire savings %.1f%%)\n",
                       result.shuffle_savings_ratio * 100.0);
  }
  os << StringPrintf("Reduce groups        : %lld (%lld input records)\n",
                     static_cast<long long>(result.reduce_groups),
                     static_cast<long long>(result.reduce_input_records));
  os << StringPrintf("Output records       : %lld (",
                     static_cast<long long>(result.output_records))
     << FormatBytes(result.output_bytes) << ")\n";
  if (result.map_retries > 0 || result.reduce_retries > 0 ||
      result.corruptions_detected > 0 || result.watchdog_timeouts > 0 ||
      !options.local_fault_plan.empty()) {
    os << "--- task attempts & recovery ----------------------------------"
          "----\n";
    os << StringPrintf("Map attempts         : %lld (%lld retries)\n",
                       static_cast<long long>(result.map_attempts),
                       static_cast<long long>(result.map_retries));
    os << StringPrintf("Reduce attempts      : %lld (%lld retries)\n",
                       static_cast<long long>(result.reduce_attempts),
                       static_cast<long long>(result.reduce_retries));
    os << StringPrintf("Corruptions caught   : %lld\n",
                       static_cast<long long>(result.corruptions_detected));
    os << StringPrintf("Watchdog timeouts    : %lld\n",
                       static_cast<long long>(result.watchdog_timeouts));
  }
  if (result.spill_engine_enabled) {
    os << "--- spill storage engine --------------------------------------"
          "----\n";
    os << "Spilled to disk      : " << FormatBytes(result.spilled_bytes)
       << StringPrintf(" (%lld extents, %lld degraded to RAM)\n",
                       static_cast<long long>(result.spill_extents),
                       static_cast<long long>(result.spill_degradations));
    os << StringPrintf("Block cache          : %lld hits / %lld misses "
                       "(%.1f%% hit rate, %lld evictions)\n",
                       static_cast<long long>(result.spill_cache_hits),
                       static_cast<long long>(result.spill_cache_misses),
                       result.spill_cache_hit_rate * 100.0,
                       static_cast<long long>(result.spill_cache_evictions));
    if (result.spill_scrubbed_blocks > 0 || result.spill_blocks_repaired > 0 ||
        result.spill_blocks_lost > 0) {
      os << StringPrintf("Scrub / repair       : %lld blocks scrubbed, "
                         "%lld repaired, %lld lost\n",
                         static_cast<long long>(result.spill_scrubbed_blocks),
                         static_cast<long long>(result.spill_blocks_repaired),
                         static_cast<long long>(result.spill_blocks_lost));
    }
    if (result.spill_short_reads > 0 || result.spill_read_errors > 0) {
      os << StringPrintf("I/O faults survived  : %lld short reads, "
                         "%lld read errors\n",
                         static_cast<long long>(result.spill_short_reads),
                         static_cast<long long>(result.spill_read_errors));
    }
  }
  if (result.journal_enabled) {
    os << "--- job recovery ----------------------------------------------"
          "----\n";
    os << "Job journal          : on ("
       << (result.resumed ? "resumed run" : "fresh run")
       << StringPrintf(", %lld records replayed, %lld appended)\n",
                       static_cast<long long>(
                           result.journal_records_replayed),
                       static_cast<long long>(
                           result.journal_records_appended));
    if (result.resumed) {
      os << StringPrintf("Adopted from journal : %lld map outputs, "
                         "%lld reduce outputs\n",
                         static_cast<long long>(result.maps_adopted),
                         static_cast<long long>(result.reduces_adopted));
    }
    if (result.orphans_swept > 0) {
      os << StringPrintf("Orphans swept        : %lld\n",
                         static_cast<long long>(result.orphans_swept));
    }
  }
  // One stable greppable line: CI compares this fingerprint between an
  // uninterrupted run and a crash + --resume run.
  os << StringPrintf("output_fingerprint   : %08x\n",
                     result.output_fingerprint);
  os << "--- shuffle pipeline ------------------------------------------"
        "----\n";
  os << StringPrintf("Map phase            : %.3f s\n",
                     result.map_phase_seconds);
  os << StringPrintf("Shuffle wait / merge : %.3f s / %.3f s\n",
                     result.shuffle_wait_seconds,
                     result.shuffle_merge_seconds);
  os << StringPrintf("Reduce compute       : %.3f s\n",
                     result.reduce_compute_seconds);
  os << StringPrintf("Overlap efficiency   : %.1f%% of reduce-side work ran "
                     "during the map phase\n",
                     result.overlap_efficiency * 100.0);
  os << StringPrintf("CRC verifications    : %lld\n",
                     static_cast<long long>(result.crc_verifications));
  os << StringPrintf("Background merges    : %lld\n",
                     static_cast<long long>(result.intermediate_merges));
  if (result.stale_fetches_invalidated > 0) {
    os << StringPrintf("Stale fetches dropped: %lld\n",
                       static_cast<long long>(
                           result.stale_fetches_invalidated));
  }
  if (result.transport_enabled) {
    os << "--- shuffle transport (tcp) -----------------------------------"
          "----\n";
    os << StringPrintf("Fetch RPCs           : %lld (%lld retransmitted)\n",
                       static_cast<long long>(result.transport_fetch_rpcs),
                       static_cast<long long>(result.transport_retransmits));
    os << StringPrintf(
        "Batched fetches      : %lld partitions over %lld RPCs "
        "(window peak %lld)\n",
        static_cast<long long>(result.transport_fetched_partitions),
        static_cast<long long>(result.transport_fetch_rpcs),
        static_cast<long long>(result.transport_window_peak));
    os << StringPrintf("Buffer pool hit rate : %.1f%%\n",
                       result.transport_pool_hit_rate * 100.0);
    os << StringPrintf("Wire bytes           : %lld\n",
                       static_cast<long long>(result.transport_wire_bytes));
    os << StringPrintf("Serves               : %lld writev (RAM) / %lld "
                       "sendfile (extent)\n",
                       static_cast<long long>(result.transport_ram_serves),
                       static_cast<long long>(result.transport_file_serves));
    if (result.transport_stale_refusals > 0) {
      os << StringPrintf("Stale refusals       : %lld\n",
                         static_cast<long long>(
                             result.transport_stale_refusals));
    }
    if (result.transport_reconnects > 0) {
      os << StringPrintf("Reconnects           : %lld\n",
                         static_cast<long long>(result.transport_reconnects));
    }
    os << StringPrintf("Fetch latency        : %.3f ms mean / %.3f ms p99\n",
                       result.transport_fetch_mean_ms,
                       result.transport_fetch_p99_ms);
  }
  os << "================================================================="
        "====\n";
}

SweepTable::SweepTable(std::string title, std::string x_label)
    : title_(std::move(title)), x_label_(std::move(x_label)) {}

void SweepTable::Add(const std::string& series, const std::string& x,
                     double seconds) {
  if (std::find(series_.begin(), series_.end(), series) == series_.end()) {
    series_.push_back(series);
  }
  if (std::find(xs_.begin(), xs_.end(), x) == xs_.end()) {
    xs_.push_back(x);
  }
  cells_[{series, x}] = seconds;
}

double SweepTable::Get(const std::string& series, const std::string& x) const {
  auto it = cells_.find({series, x});
  return it == cells_.end() ? -1.0 : it->second;
}

void SweepTable::Print(std::ostream* out) const {
  std::ostream& os = *out;
  os << "\n--- " << title_ << " (job execution time, seconds) ---\n";
  const size_t x_width = std::max<size_t>(x_label_.size() + 2, 14);
  os << std::left << std::setw(static_cast<int>(x_width)) << x_label_;
  for (const std::string& series : series_) {
    os << std::right << std::setw(static_cast<int>(
        std::max<size_t>(series.size() + 2, 12))) << series;
  }
  os << "\n";
  for (const std::string& x : xs_) {
    os << std::left << std::setw(static_cast<int>(x_width)) << x;
    for (const std::string& series : series_) {
      const double v = Get(series, x);
      const size_t width = std::max<size_t>(series.size() + 2, 12);
      if (v < 0) {
        os << std::right << std::setw(static_cast<int>(width)) << "-";
      } else {
        os << std::right << std::setw(static_cast<int>(width)) << std::fixed
           << std::setprecision(1) << v;
      }
    }
    os << "\n";
  }
}

void SweepTable::PrintWithImprovement(const std::string& baseline_series,
                                      std::ostream* out) const {
  Print(out);
  std::ostream& os = *out;
  os << "--- improvement over " << baseline_series << " (%) ---\n";
  const size_t x_width = std::max<size_t>(x_label_.size() + 2, 14);
  for (const std::string& x : xs_) {
    const double base = Get(baseline_series, x);
    if (base <= 0) continue;
    os << std::left << std::setw(static_cast<int>(x_width)) << x;
    for (const std::string& series : series_) {
      if (series == baseline_series) continue;
      const double v = Get(series, x);
      if (v < 0) continue;
      os << "  " << series << ": " << std::fixed << std::setprecision(1)
         << (base - v) / base * 100.0 << "%";
    }
    os << "\n";
  }
}

void SweepTable::PrintCsv(std::ostream* out) const {
  std::ostream& os = *out;
  os << x_label_;
  for (const std::string& series : series_) os << "," << series;
  os << "\n";
  for (const std::string& x : xs_) {
    os << x;
    for (const std::string& series : series_) {
      const double v = Get(series, x);
      os << ",";
      if (v >= 0) os << std::fixed << std::setprecision(3) << v;
    }
    os << "\n";
  }
}

}  // namespace mrmb

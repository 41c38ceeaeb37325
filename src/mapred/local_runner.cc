#include "mapred/local_runner.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "dfs/output_committer.h"
#include "io/block_codec.h"
#include "io/byte_buffer.h"
#include "io/checksum.h"
#include "io/merge.h"
#include "io/spill_store.h"
#include "mapred/fault_injector.h"
#include "mapred/job_journal.h"
#include "mapred/map_output.h"
#include "mapred/node_combiner.h"
#include "mapred/null_formats.h"
#include "mapred/partitioner.h"
#include "net/shuffle_transport.h"
#include "rpc/shuffle_wire.h"

namespace mrmb {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// Pool lanes. Shuffle events (fetch verification, background merges, final
// reduce runs) outrank queued map attempts so a committed output is
// consumed while the remaining maps run; nothing already running is ever
// preempted, so map progress is only ever deferred by one short event.
constexpr int kMapLane = 0;
constexpr int kShuffleLane = 1;

// Fetch attempts over the tcp transport before declaring the output lost.
// Transport failures are transient by nature (dropped connection, torn
// frame); CRC mismatches skip the retries — re-reading corrupt bytes cannot
// fix them.
constexpr int kTransportFetchAttempts = 3;

// A multi-spill map output stays sliced only while its slices average at
// least this many bytes. Every reader pays per slice (a CRC call, a view, a
// body iovec), so when keys interleave across spills and a slice is about
// one record, one copy into contiguous bytes is the cheaper form.
constexpr size_t kMinMeanSliceBytes = 1024;

// Prepends attempt context to an error while keeping its code (so callers
// can still dispatch on kDataLoss / kDeadlineExceeded).
Status Annotate(const Status& status, const std::string& prefix) {
  return Status(status.code(), prefix + ": " + status.message());
}

// Cancels overdue attempts. Each attempt arms a deadline when it actually
// starts running (not when it is queued) and disarms it on completion; a
// single timer thread fires the earliest pending deadline by flipping the
// attempt's CancelToken. The attempt observes the token at its next
// cancellation point and bails out with DeadlineExceeded.
class Watchdog {
 public:
  // timeout_ms <= 0 disables the watchdog (Arm becomes a no-op).
  explicit Watchdog(int64_t timeout_ms) : timeout_ms_(timeout_ms) {
    if (timeout_ms_ > 0) {
      thread_ = std::make_unique<ThreadPool>(1);
      thread_->Submit([this] { Loop(); });
    }
  }

  ~Watchdog() {
    if (thread_ != nullptr) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
      }
      cv_.notify_all();
      thread_.reset();
    }
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // Schedules `token` for cancellation timeout_ms from now. Returns a
  // ticket for Disarm (0 when disabled). `token` must stay alive until
  // Disarm returns.
  int64_t Arm(CancelToken* token) {
    if (timeout_ms_ <= 0) return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    const int64_t ticket = ++last_ticket_;
    entries_.push_back({ticket,
                        std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(timeout_ms_),
                        token});
    cv_.notify_all();
    return ticket;
  }

  void Disarm(int64_t ticket) {
    if (ticket == 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    std::erase_if(entries_,
                  [ticket](const Entry& e) { return e.ticket == ticket; });
  }

 private:
  struct Entry {
    int64_t ticket;
    std::chrono::steady_clock::time_point deadline;
    CancelToken* token;
  };

  void Loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!shutdown_) {
      const auto now = std::chrono::steady_clock::now();
      for (const Entry& e : entries_) {
        if (e.deadline <= now) e.token->Cancel();
      }
      std::erase_if(entries_,
                    [now](const Entry& e) { return e.deadline <= now; });
      if (entries_.empty()) {
        cv_.wait(lock);
        continue;
      }
      auto earliest = entries_.front().deadline;
      for (const Entry& e : entries_) earliest = std::min(earliest, e.deadline);
      cv_.wait_until(lock, earliest);
    }
  }

  const int64_t timeout_ms_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Entry> entries_;
  int64_t last_ticket_ = 0;
  bool shutdown_ = false;
  std::unique_ptr<ThreadPool> thread_;  // runs Loop(); null when disabled
};

// Per-stage combine accounting for one map attempt. Bytes are logical
// (decompressed) framed bytes; micros is wall time spent inside
// CombineSegment / CombineSortedRun, the map-side share of the
// combine_cpu_per_record calibration source.
struct MapCombineStats {
  int64_t spill_input_records = 0;
  int64_t spill_output_records = 0;
  int64_t spill_input_bytes = 0;
  int64_t spill_output_bytes = 0;
  int64_t merge_input_records = 0;
  int64_t merge_output_records = 0;
  int64_t merge_input_bytes = 0;
  int64_t merge_output_bytes = 0;
  int64_t combine_micros = 0;
};

// Map-side context: partitions each emitted record, collects into a bounded
// KvBuffer, spills sorted runs when full. Errors (oversized record,
// watchdog cancellation) stick in status(); once set, further Emits are
// no-ops and Finalize propagates the error.
//
// With the disk spill engine on (`store` non-null), spills go (sealed) to
// extent files once the attempt's resident spill bytes would exceed
// JobConf::spill_budget_bytes; admission control degrades an ENOSPC/EIO
// write back to RAM residency instead of failing the attempt. Residency
// decisions depend only on this attempt's own spill sizes, so the merged
// output — and every byte-level counter derived from committed attempts —
// stays deterministic for any thread count.
class LocalMapContext final : public MapContext {
 public:
  LocalMapContext(const JobConf& conf, int task_id, int attempt,
                  std::unique_ptr<Partitioner> partitioner,
                  std::unique_ptr<Reducer> combiner, CancelToken* cancel,
                  SpillStore* store)
      : conf_(conf),
        task_id_(task_id),
        attempt_(attempt),
        partitioner_(std::move(partitioner)),
        combiner_(std::move(combiner)),
        cancel_(cancel),
        store_(store),
        spill_budget_bytes_(conf.effective_spill_budget_bytes()),
        buffer_(conf.record.type, conf.num_reduces,
                static_cast<size_t>(
                    static_cast<double>(conf.io_sort_bytes) *
                    conf.spill_percent)) {
    // Partition sorts are independent, so each spill can fan them out over
    // a pool. The pool must be dedicated: attempts already run on the
    // runner's shared pool, and ThreadPool::Wait() waits for ALL submitted
    // tasks — nesting would deadlock. Byte output is identical either way.
    const int sort_threads =
        conf.sort_threads > 0 ? conf.sort_threads : conf.local_threads;
    if (sort_threads > 1) {
      sort_pool_ = std::make_unique<ThreadPool>(sort_threads);
    }
  }

  void Emit(std::string_view key, std::string_view value) override {
    if (!status_.ok()) return;
    if (cancel_ != nullptr && cancel_->cancelled()) {
      status_ = Status::DeadlineExceeded(
          StringPrintf("map task %d cancelled by watchdog after %lld emits",
                       task_id_, static_cast<long long>(emitted_)));
      return;
    }
    const int partition =
        partitioner_->Partition(key, emitted_, conf_.num_reduces);
    if (!buffer_.Append(partition, key, value)) {
      if (!buffer_.Fits(key, value)) {
        status_ = Status::ResourceExhausted(StringPrintf(
            "map task %d: record (key %zu B, value %zu B) can never fit the "
            "sort buffer (capacity %zu B = io_sort_bytes * spill_percent)",
            task_id_, key.size(), value.size(), buffer_.capacity()));
        return;
      }
      SpillBuffer();
      MRMB_CHECK(buffer_.Append(partition, key, value));
    }
    ++emitted_;
  }

  const JobConf& conf() const override { return conf_; }
  int task_id() const override { return task_id_; }
  const Status& status() const { return status_; }

  // Finishes the task: final flush, merged with any earlier spills into a
  // single sealed segment. Without merge-time combining that segment is
  // sliced: it owns the spills' bytes and holds each partition as their
  // merge-ordered slices, unless they are short (kMinMeanSliceBytes).
  Result<SpillSegment> Finalize() {
    MRMB_RETURN_IF_ERROR(status_);
    // Hadoop's single-spill shortcut (MapTask.mergeParts): when the final
    // flush is the only spill, the sealed, combined buffer already is the
    // map output, so it never takes a detour through the spill store.
    if (spills_.empty()) return TakeSpill(/*seal=*/true);
    // Emit appends the record that triggered each earlier spill, so the
    // buffer is non-empty here and at least two spills merge below.
    SpillBuffer();
    MRMB_RETURN_IF_ERROR(status_);  // SpillBuffer can fail a disk write
    // Every spill in RAM: a resident one as it is, a stored one read back
    // (and verified) one partition per buffer. Either way the merged output
    // is byte-identical.
    std::vector<SpillSegment> spills;
    spills.reserve(spills_.size());
    for (SpillSlot& slot : spills_) {
      if (slot.stored == nullptr) {
        spills.push_back(std::move(slot.resident));
        continue;
      }
      SpillSegment read;
      read.partitions = slot.stored->partitions();
      read.slices.resize(read.partitions.size());
      for (size_t p = 0; p < read.partitions.size(); ++p) {
        Result<std::string> run = slot.stored->ReadPartition(
            static_cast<int>(p), /*verify_partition_crc=*/true);
        if (!run.ok()) {
          return Annotate(run.status(),
                          StringPrintf("map task %d attempt %d: reading "
                                       "spill back from disk",
                                       task_id_, attempt_));
        }
        read.slices[p] = {{p, 0, run->size()}};
        read.buffers.push_back(std::move(run).value());
      }
      spills.push_back(std::move(read));
    }
    const RawComparator* comparator = ComparatorFor(conf_.record.type);
    // Merge-time combining (mapreduce.map.combine.minspills): when enough
    // spills fold into the final output, the combiner re-runs over each
    // merged key group — duplicates that straddled spill boundaries get
    // collapsed before a byte hits the wire.
    const bool merge_combine =
        combiner_ != nullptr && conf_.min_spills_for_combine > 0 &&
        spills.size() >= static_cast<size_t>(conf_.min_spills_for_combine);
    if (!merge_combine) {
      // The output is the spills' own bytes in merge order: no record is
      // copied, and the seal streams each partition's CRC over its slices.
      Result<SpillSegment> merged =
          MergeSpillsToSlices(std::move(spills), comparator);
      if (!merged.ok()) {
        return Annotate(merged.status(),
                        StringPrintf("map task %d: merging spills", task_id_));
      }
      // Short slices cost their readers more than the copy they save.
      if (static_cast<size_t>(merged->total_bytes()) <
          kMinMeanSliceBytes * merged->slice_count()) {
        merged->Gather();
      }
      SealSegment(&merged.value());
      return merged;
    }
    const size_t num_partitions = static_cast<size_t>(conf_.num_reduces);
    SpillSegment out;
    out.partitions.resize(num_partitions);
    for (size_t p = 0; p < num_partitions; ++p) {
      SpillSegment::PartitionRange& range = out.partitions[p];
      range.offset = static_cast<int64_t>(out.data.size());
      std::vector<FramedRun> runs;
      runs.reserve(spills.size());
      for (const SpillSegment& spill : spills) {
        runs.push_back({spill.PartitionSlices(static_cast<int>(p)), -1});
      }
      // The combiner's output lands straight in the map output.
      Result<MergeAppendStats> merged = MergeAndAppend(
          runs, comparator, combiner_.get(), conf_, task_id_, &out.data);
      if (!merged.ok()) {
        return Annotate(merged.status(),
                        StringPrintf("map task %d: merging spills", task_id_));
      }
      combine_.merge_input_records += merged->merged_records;
      combine_.merge_input_bytes += merged->merged_bytes;
      combine_.combine_micros +=
          static_cast<int64_t>(merged->combine_seconds * 1e6);
      combine_removed_ += merged->merged_records - merged->records;
      combine_.merge_output_records += merged->records;
      combine_.merge_output_bytes += merged->bytes;
      range.records = merged->records;
      range.length = static_cast<int64_t>(out.data.size()) - range.offset;
    }
    SealSegment(&out);
    return out;
  }

  int64_t emitted() const { return emitted_; }
  int64_t spill_count() const { return spill_count_; }
  int64_t combine_removed() const { return combine_removed_; }
  const MapCombineStats& combine_stats() const { return combine_; }
  int64_t spilled_bytes() const { return spilled_bytes_; }
  int64_t spill_extents() const { return spill_extents_; }
  int64_t spill_degradations() const { return spill_degradations_; }

 private:
  // One spill, resident in RAM (unsealed) or parked in an extent file.
  struct SpillSlot {
    SpillSegment resident;  // valid iff stored == nullptr
    std::shared_ptr<const StoredSpill> stored;
  };

  // Sorts and (per-spill) combines the buffer's contents into one spill,
  // sealed when `seal` is set, leaving the buffer empty. Each call is one
  // spill in spill_count(). With a combiner, the combined spill is built
  // straight from the sorted buffer.
  SpillSegment TakeSpill(bool seal) {
    buffer_.Sort(sort_pool_.get());
    ++spill_count_;
    SpillSegment spill;
    if (combiner_ == nullptr) {
      spill = buffer_.ToSpill(seal);
    } else {
      const auto t0 = Clock::now();
      spill = CombineSegment(buffer_, ComparatorFor(conf_.record.type),
                             combiner_.get(), conf_, task_id_, seal);
      combine_.combine_micros +=
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                t0)
              .count();
      combine_.spill_input_records += buffer_.records();
      combine_.spill_input_bytes += static_cast<int64_t>(buffer_.bytes_used());
      combine_.spill_output_records += spill.total_records();
      combine_.spill_output_bytes += spill.total_bytes();
      combine_removed_ += buffer_.records() - spill.total_records();
    }
    buffer_.Clear();
    return spill;
  }

  // Takes the buffer as one spill and parks it: in an extent file once the
  // attempt's resident spill bytes would exceed the budget, else in RAM.
  // Only a spill bound for the store is sealed: a resident one is merged
  // straight out of RAM, and nothing verifies it.
  void SpillBuffer() {
    SpillSegment spill = TakeSpill(/*seal=*/false);
    const int64_t bytes = spill.total_bytes();
    if (store_ != nullptr && resident_spill_bytes_ + bytes >
                                 spill_budget_bytes_) {
      SealSegment(&spill);
      Result<std::shared_ptr<const StoredSpill>> stored =
          store_->Put(spill, task_id_, attempt_);
      if (stored.ok()) {
        spilled_bytes_ += (*stored)->file_bytes();
        ++spill_extents_;
        spills_.push_back({SpillSegment(), std::move(stored).value()});
        return;
      }
      const StatusCode code = stored.status().code();
      if (code != StatusCode::kResourceExhausted &&
          code != StatusCode::kIOError) {
        // Post-seal scrub found unrepairable damage: fail the attempt so
        // the retry regenerates the bytes.
        status_ = Annotate(
            stored.status(),
            StringPrintf("map task %d attempt %d: spilling to disk",
                         task_id_, attempt_));
        return;
      }
      // ENOSPC/EIO: degrade this spill to RAM residency and carry on —
      // a full disk shrinks the effective budget, it doesn't kill work.
      ++spill_degradations_;
    }
    resident_spill_bytes_ += bytes;
    spills_.push_back({std::move(spill), nullptr});
  }

  const JobConf& conf_;
  int task_id_;
  int attempt_;
  std::unique_ptr<Partitioner> partitioner_;
  std::unique_ptr<Reducer> combiner_;
  CancelToken* cancel_;
  SpillStore* store_;  // null => all spills stay resident
  const int64_t spill_budget_bytes_;
  std::unique_ptr<ThreadPool> sort_pool_;  // null => sort inline
  KvBuffer buffer_;
  std::vector<SpillSlot> spills_;
  int64_t spill_count_ = 0;
  int64_t emitted_ = 0;
  int64_t combine_removed_ = 0;
  MapCombineStats combine_;
  int64_t resident_spill_bytes_ = 0;
  int64_t spilled_bytes_ = 0;
  int64_t spill_extents_ = 0;
  int64_t spill_degradations_ = 0;
  Status status_;
};

// Reduce-side context that stages output in memory instead of writing it.
// The coordinator commits staged records to the real OutputFormat in task
// order once the attempt has fully succeeded, so failed attempts never leave
// partial output behind and results are identical for any thread count.
class StagedReduceContext final : public ReduceContext {
 public:
  StagedReduceContext(const JobConf& conf, int task_id, CancelToken* cancel)
      : conf_(conf), task_id_(task_id), cancel_(cancel) {}

  void Emit(std::string_view key, std::string_view value) override {
    if (!status_.ok()) return;
    if (cancel_ != nullptr && cancel_->cancelled()) {
      status_ = Status::DeadlineExceeded(StringPrintf(
          "reduce task %d cancelled by watchdog after %zu emits", task_id_,
          staged_.size()));
      return;
    }
    staged_.emplace_back(std::string(key), std::string(value));
  }

  const JobConf& conf() const override { return conf_; }
  int task_id() const override { return task_id_; }
  const Status& status() const { return status_; }

  std::vector<std::pair<std::string, std::string>> TakeOutput() {
    return std::move(staged_);
  }

 private:
  const JobConf& conf_;
  int task_id_;
  CancelToken* cancel_;
  std::vector<std::pair<std::string, std::string>> staged_;
  Status status_;
};

class GroupValues final : public ValueIterator {
 public:
  explicit GroupValues(GroupedIterator* groups) : groups_(groups) {}
  bool Next() override { return groups_->NextValue(); }
  std::string_view value() const override { return groups_->value(); }

 private:
  GroupedIterator* groups_;
};

// Stats of one committed (successful) map attempt. Failed attempts may have
// processed a timing-dependent prefix of their input, so their numbers are
// discarded — only committed attempts feed LocalJobResult, which keeps the
// counters deterministic.
struct MapTaskStats {
  int64_t input_records = 0;
  int64_t output_records = 0;
  int64_t spill_count = 0;
  int64_t combine_removed = 0;
  int64_t output_bytes = 0;  // logical (uncompressed) framed bytes
  int64_t wire_bytes = 0;    // bytes as published (codec frames when on)
  // Disk spill engine, this attempt only: physical extent bytes written,
  // extent count (spills + final output), and writes that degraded to RAM
  // residency on ENOSPC/EIO.
  int64_t spilled_bytes = 0;
  int64_t spill_extents = 0;
  int64_t spill_degradations = 0;
  // Per-stage combine accounting (zeros without a combiner).
  MapCombineStats combine;
};

struct MapAttemptOutcome {
  Status status;        // OK iff the output and `stats` are valid
  SpillSegment output;  // sealed (and possibly fault-corrupted) map output
  // Disk-backed final output; when set, `output` is empty and fetches read
  // partitions back through the spill store's verify/repair path.
  std::shared_ptr<const StoredSpill> stored_output;
  MapTaskStats stats;
};

struct ReduceTaskOutcome {
  std::vector<std::pair<std::string, std::string>> output;
  int64_t groups = 0;
};

struct ReduceAttemptOutcome {
  Status status;  // OK iff `committed` is valid
  // Shuffle streams whose partition turned out malformed mid-merge;
  // non-empty only with a kDataLoss status. The scheduler re-executes the
  // producing maps, re-fetches, and re-runs the reduce without charging
  // its failure budget.
  std::vector<int> corrupt_streams;
  ReduceTaskOutcome committed;
};

// ---- Crash-safety helpers ------------------------------------------------

JournalMapStats ToJournalStats(const MapTaskStats& stats) {
  JournalMapStats out;
  out.input_records = stats.input_records;
  out.output_records = stats.output_records;
  out.spill_count = stats.spill_count;
  out.combine_removed = stats.combine_removed;
  out.output_bytes = stats.output_bytes;
  out.wire_bytes = stats.wire_bytes;
  out.spilled_bytes = stats.spilled_bytes;
  out.spill_extents = stats.spill_extents;
  out.spill_degradations = stats.spill_degradations;
  out.combine_spill_input_records = stats.combine.spill_input_records;
  out.combine_spill_output_records = stats.combine.spill_output_records;
  out.combine_spill_input_bytes = stats.combine.spill_input_bytes;
  out.combine_spill_output_bytes = stats.combine.spill_output_bytes;
  out.combine_merge_input_records = stats.combine.merge_input_records;
  out.combine_merge_output_records = stats.combine.merge_output_records;
  out.combine_merge_input_bytes = stats.combine.merge_input_bytes;
  out.combine_merge_output_bytes = stats.combine.merge_output_bytes;
  out.combine_micros = stats.combine.combine_micros;
  return out;
}

MapTaskStats FromJournalStats(const JournalMapStats& stats) {
  MapTaskStats out;
  out.input_records = stats.input_records;
  out.output_records = stats.output_records;
  out.spill_count = stats.spill_count;
  out.combine_removed = stats.combine_removed;
  out.output_bytes = stats.output_bytes;
  out.wire_bytes = stats.wire_bytes;
  out.spilled_bytes = stats.spilled_bytes;
  out.spill_extents = stats.spill_extents;
  out.spill_degradations = stats.spill_degradations;
  out.combine.spill_input_records = stats.combine_spill_input_records;
  out.combine.spill_output_records = stats.combine_spill_output_records;
  out.combine.spill_input_bytes = stats.combine_spill_input_bytes;
  out.combine.spill_output_bytes = stats.combine_spill_output_bytes;
  out.combine.merge_input_records = stats.combine_merge_input_records;
  out.combine.merge_output_records = stats.combine_merge_output_records;
  out.combine.merge_input_bytes = stats.combine_merge_input_bytes;
  out.combine.merge_output_bytes = stats.combine_merge_output_bytes;
  out.combine.combine_micros = stats.combine_micros;
  return out;
}

std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

// A committed reduce's output is preserved as a part file so a resumed run
// can re-emit it without re-running the task:
//
//   [fixed64 pair_count]
//   ([varint key_len][key][varint value_len][value])*
//   [fixed32 crc32c(everything before)]
std::string EncodeReducePart(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    uint32_t* crc) {
  std::string blob;
  BufferWriter writer(&blob);
  writer.AppendFixed64(static_cast<uint64_t>(pairs.size()));
  for (const auto& [key, value] : pairs) {
    writer.AppendVarint64(static_cast<int64_t>(key.size()));
    writer.AppendRaw(key);
    writer.AppendVarint64(static_cast<int64_t>(value.size()));
    writer.AppendRaw(value);
  }
  *crc = Crc32c(blob);
  writer.AppendFixed32(*crc);
  return blob;
}

Status WriteFileDurable(const std::string& path, const std::string& blob) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError(
        StringPrintf("open %s: %s", path.c_str(), std::strerror(errno)));
  }
  size_t off = 0;
  while (off < blob.size()) {
    const ssize_t n = ::write(fd, blob.data() + off, blob.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = Status::IOError(
          StringPrintf("write %s: %s", path.c_str(), std::strerror(errno)));
      ::close(fd);
      return status;
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const Status status = Status::IOError(
        StringPrintf("fsync %s: %s", path.c_str(), std::strerror(errno)));
    ::close(fd);
    return status;
  }
  ::close(fd);
  return Status::OK();
}

// Loads a committed part file back, verifying it against both its own
// trailing checksum and the journal's reduce-commit record. Any mismatch is
// DataLoss: the caller drops the file and re-runs the reduce instead of
// trusting damaged output.
Result<std::vector<std::pair<std::string, std::string>>> LoadReducePart(
    const std::string& path, const JournalReduceCommit& commit) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("no part file at " + path);
  std::string blob((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (static_cast<int64_t>(blob.size()) != commit.part_bytes ||
      blob.size() < sizeof(uint64_t) + sizeof(uint32_t)) {
    return Status::DataLoss(StringPrintf(
        "part file %s: %zu bytes, journal recorded %lld", path.c_str(),
        blob.size(), static_cast<long long>(commit.part_bytes)));
  }
  const std::string_view body(blob.data(), blob.size() - sizeof(uint32_t));
  uint32_t stored_crc = 0;
  {
    BufferReader tail(
        std::string_view(blob).substr(blob.size() - sizeof(uint32_t)));
    MRMB_RETURN_IF_ERROR(tail.ReadFixed32(&stored_crc));
  }
  const uint32_t actual_crc = Crc32c(body);
  if (stored_crc != actual_crc || stored_crc != commit.part_crc) {
    return Status::DataLoss(StringPrintf(
        "part file %s: crc %08x (stored %08x, journal %08x)", path.c_str(),
        actual_crc, stored_crc, commit.part_crc));
  }
  BufferReader reader(body);
  uint64_t count = 0;
  MRMB_RETURN_IF_ERROR(reader.ReadFixed64(&count));
  if (count != static_cast<uint64_t>(commit.output_records)) {
    return Status::DataLoss(StringPrintf(
        "part file %s: %llu pairs, journal recorded %lld", path.c_str(),
        static_cast<unsigned long long>(count),
        static_cast<long long>(commit.output_records)));
  }
  std::vector<std::pair<std::string, std::string>> pairs;
  pairs.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    int64_t key_len = 0;
    int64_t value_len = 0;
    std::string_view key;
    std::string_view value;
    MRMB_RETURN_IF_ERROR(reader.ReadVarint64(&key_len));
    if (key_len < 0) return Status::DataLoss("part file " + path);
    MRMB_RETURN_IF_ERROR(reader.ReadRaw(static_cast<size_t>(key_len), &key));
    MRMB_RETURN_IF_ERROR(reader.ReadVarint64(&value_len));
    if (value_len < 0) return Status::DataLoss("part file " + path);
    MRMB_RETURN_IF_ERROR(
        reader.ReadRaw(static_cast<size_t>(value_len), &value));
    pairs.emplace_back(std::string(key), std::string(value));
  }
  if (!reader.AtEnd()) {
    return Status::DataLoss("part file " + path + ": trailing bytes");
  }
  return pairs;
}

MapAttemptOutcome RunMapAttempt(const JobConf& conf, int task, int attempt,
                                InputFormat* input_format,
                                const InputSplit& split,
                                const MapperFactory& mapper_factory,
                                const PartitionerFactory& partitioner_factory,
                                const ReducerFactory& combiner_factory,
                                const LocalFaultInjector& injector,
                                SpillStore* store, CancelToken* cancel) {
  MapAttemptOutcome outcome;
  const int64_t delay = injector.MapDelayMs(task, attempt);
  if (delay > 0 && !cancel->SleepFor(delay)) {
    outcome.status = Status::DeadlineExceeded(StringPrintf(
        "map task %d attempt %d cancelled during injected %lld ms stall",
        task, attempt, static_cast<long long>(delay)));
    return outcome;
  }
  if (injector.ShouldFailMap(task, attempt)) {
    outcome.status = Status::Internal(StringPrintf(
        "injected failure of map task %d attempt %d", task, attempt));
    return outcome;
  }

  std::unique_ptr<RecordReader> reader = input_format->CreateReader(conf, split);
  std::unique_ptr<Mapper> mapper = mapper_factory(task);
  // The partitioner seed depends on the task only, never the attempt: a
  // re-executed map must reproduce its output byte for byte, or recovery
  // would change the answer.
  std::unique_ptr<Partitioner> partitioner =
      partitioner_factory != nullptr
          ? partitioner_factory(task)
          : MakePartitioner(conf.pattern,
                            conf.seed + static_cast<uint64_t>(task) * 7919,
                            conf.records_per_map, conf.zipf_exponent);
  auto context = std::make_unique<LocalMapContext>(
      conf, task, attempt, std::move(partitioner),
      combiner_factory != nullptr ? combiner_factory(task) : nullptr, cancel,
      store);
  std::string key;
  std::string value;
  while (context->status().ok() && reader->Next(&key, &value)) {
    ++outcome.stats.input_records;
    mapper->Map(key, value, context.get());
  }
  Result<SpillSegment> segment = context->Finalize();
  if (!segment.ok()) {
    outcome.status = segment.status();
    return outcome;
  }
  outcome.output = std::move(segment).value();
  outcome.stats.output_bytes = outcome.output.total_bytes();
  outcome.stats.output_records = context->emitted();
  outcome.stats.spill_count = context->spill_count();
  outcome.stats.combine_removed = context->combine_removed();
  outcome.stats.combine = context->combine_stats();
  outcome.stats.spilled_bytes = context->spilled_bytes();
  outcome.stats.spill_extents = context->spill_extents();
  outcome.stats.spill_degradations = context->spill_degradations();
  // Free the sort buffer (and the sort pool) before the output is
  // compressed and stored: the sealed output no longer needs them.
  context.reset();
  // With a codec selected, every sealed partition is re-framed into one
  // compressed block whose CRC covers the on-wire bytes; reducers verify
  // and (simulated-)transfer only the compressed form.
  const MapOutputCodec codec = conf.effective_map_output_codec();
  if (codec != MapOutputCodec::kNone) {
    Result<SpillSegment> wire = CompressSegment(codec, outcome.output);
    if (!wire.ok()) {
      outcome.status = Annotate(
          wire.status(),
          StringPrintf("map task %d: compressing map output", task));
      return outcome;
    }
    outcome.output = std::move(wire).value();
  }
  outcome.stats.wire_bytes = outcome.output.total_bytes();
  // Inject any scheduled bit flips *after* sealing, so the stored CRCs
  // describe the pristine bytes and the flip is detectable downstream.
  injector.MaybeCorruptMapOutput(task, attempt, &outcome.output);
  if (store != nullptr) {
    // With the disk engine on, the final output lives on disk too; fetches
    // read partitions back through the store's verify/repair path. ENOSPC
    // and EIO degrade to RAM residency (the segment simply stays in
    // `output`) rather than failing the attempt; anything else — notably
    // DataLoss from a write-time scrub — burns this attempt and retries.
    Result<std::shared_ptr<const StoredSpill>> put =
        store->Put(outcome.output, task, attempt);
    if (put.ok()) {
      outcome.stored_output = std::move(put).value();
      outcome.stats.spilled_bytes += outcome.stored_output->file_bytes();
      outcome.stats.spill_extents += 1;
      outcome.output = SpillSegment();
    } else if (put.status().code() == StatusCode::kResourceExhausted ||
               put.status().code() == StatusCode::kIOError) {
      outcome.stats.spill_degradations += 1;
    } else {
      outcome.status =
          Annotate(put.status(),
                   StringPrintf("map task %d attempt %d: storing final output",
                                task, attempt));
      return outcome;
    }
  }
  return outcome;
}

// ---- Static merge plan -------------------------------------------------
//
// Hadoop's MergeManager folds fetched segments whenever memory pressure
// says so, which makes the set of streams in each fold — and therefore the
// order of equal keys — depend on arrival timing. We bound the final
// fan-in the same way but pick the folds statically: a pure function of
// (num_leaves, merge_factor) that groups *consecutive* leaf ids, level by
// level, until at most merge_factor streams remain. Contiguous ascending
// spans plus the merge's input-index tie-break mean equal keys always come
// out in ascending leaf-id order, exactly like one flat merge over all
// leaves — so job output is byte-identical no matter when segments
// arrived. A leaf is one shuffle stream: a single map's output, or — with
// in-node combining — one node-combined block of consecutive maps, whose
// own internal merge preserved exactly the same ascending order.

// Exactly one of `node` / `leaf` is >= 0: a reference to an intermediate
// merge's output or to one raw fetched shuffle-stream partition.
struct StreamRef {
  int node = -1;
  int leaf = -1;
};

struct PlanNode {
  std::vector<StreamRef> children;
  int leaf_begin = 0;  // leaf span [leaf_begin, leaf_end) this node covers
  int leaf_end = 0;
};

struct MergePlan {
  std::vector<PlanNode> nodes;           // children always precede parents
  std::vector<StreamRef> final_streams;  // ascending leaf-span order
};

MergePlan BuildMergePlan(int num_leaves, int merge_factor) {
  MergePlan plan;
  std::vector<StreamRef> level(static_cast<size_t>(num_leaves));
  for (int m = 0; m < num_leaves; ++m) level[static_cast<size_t>(m)].leaf = m;
  const auto span_of = [&plan](const StreamRef& s) -> std::pair<int, int> {
    if (s.leaf >= 0) return {s.leaf, s.leaf + 1};
    const PlanNode& node = plan.nodes[static_cast<size_t>(s.node)];
    return {node.leaf_begin, node.leaf_end};
  };
  while (static_cast<int>(level.size()) > merge_factor) {
    std::vector<StreamRef> next;
    for (size_t i = 0; i < level.size(); i += static_cast<size_t>(merge_factor)) {
      const size_t end =
          std::min(level.size(), i + static_cast<size_t>(merge_factor));
      if (end - i == 1) {
        next.push_back(level[i]);  // singleton passes through unfolded
        continue;
      }
      PlanNode node;
      node.children.assign(level.begin() + static_cast<int64_t>(i),
                           level.begin() + static_cast<int64_t>(end));
      node.leaf_begin = span_of(node.children.front()).first;
      node.leaf_end = span_of(node.children.back()).second;
      plan.nodes.push_back(std::move(node));
      StreamRef ref;
      ref.node = static_cast<int>(plan.nodes.size()) - 1;
      next.push_back(ref);
    }
    level = std::move(next);
  }
  plan.final_streams = std::move(level);
  return plan;
}

// ---- Pipelined shuffle scheduler ----------------------------------------
//
// Event-driven execution modelled on Hadoop's ShuffleScheduler +
// MergeManager:
//
//   map commit --publish(gen)--> per-reduce fetch queues --> drain events
//     (verify CRC once per (stream, gen), zero-copy slices of the sealed
//      segment, fold ready merge-plan nodes) --> all inputs current
//     --> final task (bounded-fan-in merge + reduce function).
//
// Reducers launch once `reduce_slowstart` of the maps committed; fetch and
// background-merge work rides the shuffle lane so it interleaves with the
// remaining map attempts. Generations keep the fault semantics: a fetch
// that fails verification declares the output lost, bumps the stream's
// target generation and re-executes its producer(s) inline; reduces that
// already fetched the stale generation drop it when the fresh commit's
// event arrives (the shared_ptr keeps old bytes alive for reduces that
// already consumed them — re-executed output is byte-identical anyway, by
// the determinism contract).
//
// In-node combining (node_combine_min_maps = k >= 2) inserts one stage
// between map commits and the shuffle: maps are grouped into fixed blocks
// of k consecutive task ids — a pure function of (num_maps, k), never of
// timing — and the shuffle serves one combined stream per block. When the
// last member of a block commits, the block's sealed segments are merged
// per partition, the combiner re-runs over each key group
// (BuildNodeCombinedSegment), and the re-sealed result is published under
// the block's stream id and generation. A lost stream re-executes every
// member and rebuilds; a member whose bytes turn out damaged at build time
// is re-executed alone, exactly like a failed reduce-side fetch. With k <
// 2 every stream is a single map and the plane is byte-for-byte the
// legacy one.
class PipelinedJob {
 public:
  PipelinedJob(const JobConf& conf, InputFormat* input_format,
               std::vector<InputSplit> splits,
               const MapperFactory& mapper_factory,
               const ReducerFactory& reducer_factory,
               const PartitionerFactory& partitioner_factory,
               const ReducerFactory& combiner_factory)
      : conf_(conf),
        input_format_(input_format),
        splits_(std::move(splits)),
        mapper_factory_(mapper_factory),
        reducer_factory_(reducer_factory),
        partitioner_factory_(partitioner_factory),
        combiner_factory_(combiner_factory),
        comparator_(ComparatorFor(conf.record.type)),
        injector_(conf.local_fault_plan, conf.seed),
        group_size_(conf.node_combine_min_maps >= 2
                        ? conf.node_combine_min_maps
                        : 1),
        num_streams_((conf.num_maps + group_size_ - 1) / group_size_),
        plan_(BuildMergePlan(num_streams_, conf.merge_factor)),
        pool_(conf.local_threads),
        watchdog_(conf.task_timeout_ms),
        slowstart_threshold_(static_cast<int>(std::ceil(
            conf.reduce_slowstart * static_cast<double>(conf.num_maps)))),
        slots_(static_cast<size_t>(conf.num_maps)),
        groups_(static_cast<size_t>(num_streams_)),
        reduces_(static_cast<size_t>(conf.num_reduces)) {
    for (ReduceShuffle& rs : reduces_) {
      rs.inputs.resize(static_cast<size_t>(num_streams_));
      rs.nodes.resize(plan_.nodes.size());
    }
    reduce_adopted_.assign(static_cast<size_t>(conf.num_reduces), 0);
  }

  Status Execute(OutputFormat* output_format, LocalJobResult* result);

  // Non-empty only after a successful journaled run: the extents directory,
  // safe to remove once the store (and every handle into it) is destroyed.
  const std::string& success_cleanup_dir() const {
    return success_cleanup_dir_;
  }

 private:
  // One fetched stream partition, stamped with its generation. `slices`
  // are the merge-ready framed records: the shared `segment`'s own slices
  // of the partition (in process, resident, codec off), or one view of
  // this reduce's own copy in `decompressed` (read back from disk,
  // decompressed once, or fetched over the wire).
  struct FetchedInput {
    std::shared_ptr<const SpillSegment> segment;
    int generation = -1;  // -1 = nothing fetched yet
    std::string decompressed;
    std::vector<std::string_view> slices;
  };

  // One merge-plan node's fold. Without a combiner at folds the merged run
  // is `slices` of bytes the reduce already holds: the shared map-output
  // segments (inproc, codec off) or its own fetched, decompressed copies.
  // A fold that runs the combiner owns its output in `combined`, and
  // `slices` is that one string. Every slice stays valid until
  // DirtyNodesCovering resets this node, which it does before any input
  // it covers is replaced.
  struct NodeState {
    bool done = false;
    std::vector<std::string_view> slices;
    std::string combined;
  };

  // Scheduler's view of one map task's published output. Exactly one of
  // `segment` (resident) / `stored` (disk extent) is set per committed
  // generation — an attempt that degraded on ENOSPC/EIO commits resident
  // even when the engine is on.
  struct MapSlot {
    std::shared_ptr<const SpillSegment> segment;  // latest committed output
    std::shared_ptr<const StoredSpill> stored;    // ... or its disk extent
    int committed_gen = -1;  // generation of the output; -1 = none yet
    int target_gen = 0;      // bumped when the output is declared lost
    bool initial_committed = false;
    int attempts_started = 0;
    MapTaskStats stats;
  };

  // What the shuffle actually serves for one stream. A singleton stream
  // aliases its member's MapSlot output under the member's generation; a
  // multi-member stream holds the node-combined segment under its own
  // generation counter (bumped whenever the combined content must change:
  // a member re-executed, or the combined bytes themselves were lost).
  struct GroupSlot {
    std::shared_ptr<const SpillSegment> segment;
    std::shared_ptr<const StoredSpill> stored;
    int committed_gen = -1;  // generation served; -1 = nothing published
    int target_gen = 0;      // bumped when the stream is declared lost
    bool building = false;   // a BuildGroup is in flight for this stream
  };

  // Fixed node-combine blocks: stream s covers maps [s*k, min((s+1)*k,
  // num_maps)) with k = group_size_. Pure functions of the conf, so the
  // grouping — and therefore every byte the shuffle serves — is identical
  // for any thread count or commit order.
  int StreamOf(int m) const { return m / group_size_; }
  int MemberBegin(int s) const { return s * group_size_; }
  int MemberEnd(int s) const {
    return std::min((s + 1) * group_size_, conf_.num_maps);
  }
  int GroupSizeOf(int s) const { return MemberEnd(s) - MemberBegin(s); }

  struct ReduceShuffle {
    // ---- guarded by mu_ ----
    std::vector<int> fetch_queue;  // committed stream ids to fetch
    bool drain_scheduled = false;
    bool final_scheduled = false;
    bool completed = false;
    int attempts_started = 0;
    int failures = 0;
    ReduceTaskOutcome committed;
    Clock::time_point final_start{};
    // ---- owned by the single scheduled drain/final task ----
    // (successive tasks are ordered through mu_ + the pool queue, so no
    //  two ever touch these concurrently)
    // Sized once, in the constructor, and never reallocated: fold slices
    // may point into a FetchedInput's or NodeState's own string, whose
    // short contents live inside the object.
    std::vector<FetchedInput> inputs;
    std::vector<NodeState> nodes;
    double drain_busy_seconds = 0;
  };

  bool JobFailed() {
    std::lock_guard<std::mutex> lock(mu_);
    return job_failed_;
  }

  void FailJobLocked(const Status& status) {
    if (job_failed_) return;
    job_failed_ = true;
    job_error_ = status;
    cv_.notify_all();
  }

  void FailJob(const Status& status) {
    std::lock_guard<std::mutex> lock(mu_);
    FailJobLocked(status);
  }

  // Fires a crash_at point: the `occurrence`-th journal append of `event`
  // just became durable, so tearing down here models a process that died
  // with the record on disk but the in-memory transition not yet applied.
  // In-flight attempts drain through the usual job_failed_ checks, cleanup
  // is skipped, and Run surfaces kAborted. Returns true when it fired.
  bool MaybeCrashLocked(CrashEvent event) {
    if (journal_ == nullptr) return false;
    const int64_t occurrence = crash_counts_[static_cast<size_t>(event)]++;
    if (!conf_.local_fault_plan.CrashesAt(event, occurrence)) return false;
    FailJobLocked(Status::Aborted(StringPrintf(
        "simulated crash at %s@%lld — durable state kept; re-run with "
        "--resume",
        CrashEventName(event), static_cast<long long>(occurrence))));
    return true;
  }

  // A journal append failure kills the job: continuing would let state
  // transitions outrun the log, the one inversion the write-ahead contract
  // forbids.
  void JournalAppend(const Status& status) {
    if (status.ok()) return;
    FailJob(Annotate(status, "job journal append"));
  }

  // Adds a chunk of reduce-side busy time to the phase accumulators,
  // clipping against the end of the map phase for the overlap metric.
  void AddBusy(Clock::time_point t0, Clock::time_point t1, bool merge_bucket) {
    const double dur = Seconds(t1 - t0);
    if (dur <= 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    (merge_bucket ? shuffle_merge_busy_ : reduce_compute_busy_) += dur;
    if (!map_phase_done_) {
      overlap_busy_ += dur;
    } else if (map_phase_end_ > t0) {
      overlap_busy_ += Seconds(std::min(t1, map_phase_end_) - t0);
    }
  }

  // ---- map side ----
  void MapTaskMain(int m) {
    if (JobFailed()) return;
    const Status status = RunMapToCommit(m);
    if (!status.ok()) FailJob(status);
  }

  // Runs attempts of map `m` until one commits or the budget is exhausted.
  // Shared by the initial run and inline re-execution after lost output.
  Status RunMapToCommit(int m) {
    while (true) {
      if (JobFailed()) return Status::OK();  // job already failing elsewhere
      int attempt;
      {
        std::lock_guard<std::mutex> lock(mu_);
        attempt = slots_[static_cast<size_t>(m)].attempts_started++;
        ++result_.map_attempts;
        if (attempt > 0) ++result_.map_retries;
      }
      if (journal_ != nullptr) {
        JournalAppend(journal_->AppendAttemptStart(/*is_map=*/true, m,
                                                   attempt));
        if (JobFailed()) return Status::OK();
      }
      CancelToken token;
      // Arm inside the worker: the deadline covers execution, not time
      // spent queued behind other attempts.
      const int64_t ticket = watchdog_.Arm(&token);
      MapAttemptOutcome outcome = RunMapAttempt(
          conf_, m, attempt, input_format_, splits_[static_cast<size_t>(m)],
          mapper_factory_, partitioner_factory_, combiner_factory_, injector_,
          store_.get(), &token);
      watchdog_.Disarm(ticket);
      if (outcome.status.ok()) {
        CommitMapOutput(m, attempt, std::move(outcome));
        return Status::OK();
      }
      if (journal_ != nullptr) {
        JournalAppend(journal_->AppendAttemptFail(/*is_map=*/true, m,
                                                  attempt));
      }
      bool exhausted;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (outcome.status.code() == StatusCode::kDeadlineExceeded) {
          ++result_.watchdog_timeouts;
        }
        exhausted = slots_[static_cast<size_t>(m)].attempts_started >=
                    conf_.max_task_attempts;
      }
      if (exhausted) {
        return Annotate(outcome.status,
                        StringPrintf("map task %d failed after %d attempts",
                                     m, conf_.max_task_attempts));
      }
    }
  }

  // Publishes a committed map output under the current target generation
  // and fans the commit event out to every launched reduce's fetch queue.
  // With the journal on, the commit record (carrying the durable extent's
  // manifest) must land before the output becomes visible — a crash
  // between the two leaves a record resume can act on, never a visible
  // output the journal does not know about.
  void CommitMapOutput(int m, int attempt, MapAttemptOutcome outcome) {
    int build_stream = -1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (journal_ != nullptr) {
        if (job_failed_) return;
        JournalMapCommit commit;
        commit.task = m;
        commit.attempt = attempt;
        commit.stats = ToJournalStats(outcome.stats);
        if (outcome.stored_output != nullptr) {
          commit.has_extent = true;
          commit.extent.file_name = Basename(outcome.stored_output->path());
          commit.extent.file_bytes = outcome.stored_output->file_bytes();
          commit.extent.logical_bytes = outcome.stored_output->logical_bytes();
          commit.extent.partitions = outcome.stored_output->partitions();
        }
        const Status appended = journal_->AppendMapCommit(commit);
        if (!appended.ok()) {
          FailJobLocked(Annotate(appended, "job journal append"));
          return;
        }
        if (MaybeCrashLocked(CrashEvent::kMapCommit)) return;
      }
      MapSlot& slot = slots_[static_cast<size_t>(m)];
      if (outcome.stored_output != nullptr) {
        slot.stored = std::move(outcome.stored_output);
        slot.segment.reset();
      } else {
        slot.segment =
            std::make_shared<const SpillSegment>(std::move(outcome.output));
        slot.stored.reset();
      }
      slot.committed_gen = slot.target_gen;
      slot.stats = outcome.stats;
      const int s = StreamOf(m);
      GroupSlot& group = groups_[static_cast<size_t>(s)];
      if (GroupSizeOf(s) == 1) {
        // Singleton stream: the shuffle serves the map output directly,
        // under the member's own generation.
        group.segment = slot.segment;
        group.stored = slot.stored;
        group.committed_gen = slot.committed_gen;
        group.target_gen = slot.committed_gen;
        if (transport_server_ != nullptr) {
          // Publish before the fetch events fan out (same critical
          // section), so a fetcher can never race ahead of the server's
          // registration.
          transport_server_->Publish(
              s, static_cast<uint32_t>(group.committed_gen), group.segment,
              group.stored);
        }
      } else if (AllMembersCurrentLocked(s)) {
        // Last member of the block just (re-)committed: the combined
        // content must change, so retarget and rebuild. The build runs
        // outside the lock on this same worker thread — never parked
        // waiting for pool capacity, exactly like inline re-execution.
        if (group.committed_gen >= 0 &&
            group.committed_gen == group.target_gen) {
          ++group.target_gen;
        }
        if (!group.building) {
          group.building = true;
          build_stream = s;
        }
      }
      if (!slot.initial_committed) {
        slot.initial_committed = true;
        ++initial_commits_;
        if (initial_commits_ == conf_.num_maps) {
          map_phase_end_ = Clock::now();
          map_phase_done_ = true;
        }
        if (!reduces_launched_ && initial_commits_ >= slowstart_threshold_) {
          LaunchReducesLocked();
        }
      }
      if (reduces_launched_ && GroupSizeOf(s) == 1) {
        for (int r = 0; r < conf_.num_reduces; ++r) EnqueueFetchLocked(r, s);
      }
      cv_.notify_all();  // wakes WaitUntilCurrent
    }
    if (build_stream >= 0) BuildGroup(build_stream);
  }

  bool AllMembersCurrentLocked(int s) const {
    for (int m = MemberBegin(s); m < MemberEnd(s); ++m) {
      const MapSlot& slot = slots_[static_cast<size_t>(m)];
      if (slot.committed_gen < 0 || slot.committed_gen != slot.target_gen) {
        return false;
      }
    }
    return true;
  }

  // Builds (or rebuilds) the node-combined segment for multi-member stream
  // `s` and publishes it under the group's target generation. Runs outside
  // mu_ on the committing worker's thread; `building` guarantees a single
  // builder per stream. Loops until the installed segment matches the
  // group's target — a member re-commit mid-build just bumps the target
  // and the loop folds the fresh bytes in.
  void BuildGroup(int s) {
    while (true) {
      std::vector<NodeCombineMember> members;
      int target = 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        GroupSlot& group = groups_[static_cast<size_t>(s)];
        if (job_failed_ || !AllMembersCurrentLocked(s) ||
            group.committed_gen == group.target_gen) {
          // Failing job, a member mid-regeneration (its re-commit will
          // retrigger), or another commit already satisfied the target.
          group.building = false;
          return;
        }
        target = group.target_gen;
        for (int m = MemberBegin(s); m < MemberEnd(s); ++m) {
          const MapSlot& slot = slots_[static_cast<size_t>(m)];
          members.push_back({m, slot.segment, slot.stored});
        }
      }
      std::unique_ptr<Reducer> combiner =
          combiner_factory_ != nullptr ? combiner_factory_(s) : nullptr;
      std::vector<int> corrupt;
      Result<NodeCombineOutput> built = BuildNodeCombinedSegment(
          members, conf_, comparator_, combiner.get(), s, &corrupt);
      if (!built.ok()) {
        if (!HandleGroupBuildFailure(s, target, corrupt, built.status())) {
          return;
        }
        continue;  // members re-committed; rebuild from fresh bytes
      }
      NodeCombineOutput output = std::move(built).value();
      std::shared_ptr<const StoredSpill> stored;
      if (store_ != nullptr) {
        // Park the combined segment in the spill store like any final map
        // output, so the tcp transport serves it through the same
        // zero-copy sendfile path. Extent task ids live above the real
        // maps'; ENOSPC/EIO degrades to RAM residency as usual. The
        // extent is derived state — never journaled, swept as an orphan
        // on resume, rebuilt from the members.
        Result<std::shared_ptr<const StoredSpill>> put =
            store_->Put(output.segment, conf_.num_maps + s, target);
        if (put.ok()) {
          stored = std::move(put).value();
        } else {
          std::lock_guard<std::mutex> lock(mu_);
          ++result_.spill_degradations;
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        GroupSlot& group = groups_[static_cast<size_t>(s)];
        if (group.target_gen != target) continue;  // content moved on
        if (stored != nullptr) {
          group.stored = std::move(stored);
          group.segment.reset();
        } else {
          group.segment = std::make_shared<const SpillSegment>(
              std::move(output.segment));
          group.stored.reset();
        }
        group.committed_gen = target;
        group.building = false;
        result_.combine_node_input_records += output.stats.input_records;
        result_.combine_node_output_records += output.stats.output_records;
        result_.combine_node_input_bytes += output.stats.input_bytes;
        result_.combine_node_output_bytes += output.stats.output_bytes;
        ++result_.node_combines;
        combine_node_seconds_ += output.stats.combine_seconds;
        if (transport_server_ != nullptr) {
          transport_server_->Publish(s, static_cast<uint32_t>(target),
                                     group.segment, group.stored);
        }
        if (reduces_launched_) {
          for (int r = 0; r < conf_.num_reduces; ++r) {
            EnqueueFetchLocked(r, s);
          }
        }
        cv_.notify_all();
        return;
      }
    }
  }

  // A node-combine build hit damaged member bytes. Re-executes the blamed
  // members inline (bumping the group's target so nothing serves the old
  // combined bytes meanwhile) and returns true when the caller should
  // rebuild; false when the job is failing. `building` stays held by the
  // calling BuildGroup throughout, so member re-commits cannot start a
  // second builder.
  bool HandleGroupBuildFailure(int s, int target,
                               const std::vector<int>& corrupt,
                               const Status& status) {
    std::vector<int> reexec(corrupt);
    std::sort(reexec.begin(), reexec.end());
    reexec.erase(std::unique(reexec.begin(), reexec.end()), reexec.end());
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (reexec.empty() || job_failed_) {
        // No member to blame (compression failure, internal error): the
        // rebuild could only fail identically, so the job fails.
        groups_[static_cast<size_t>(s)].building = false;
        FailJobLocked(Annotate(
            status, StringPrintf("node combine of stream %d failed", s)));
        return false;
      }
      result_.corruptions_detected += static_cast<int64_t>(reexec.size());
      GroupSlot& group = groups_[static_cast<size_t>(s)];
      if (group.target_gen == target) ++group.target_gen;
      for (int m : reexec) {
        MapSlot& slot = slots_[static_cast<size_t>(m)];
        if (slot.committed_gen >= 0 && slot.committed_gen == slot.target_gen) {
          ++slot.target_gen;
        }
        if (slot.attempts_started >= conf_.max_task_attempts) {
          group.building = false;
          FailJobLocked(Status::DataLoss(StringPrintf(
              "map task %d output still corrupt after %d attempts", m,
              conf_.max_task_attempts)));
          return false;
        }
      }
    }
    for (int m : reexec) {
      const Status reran = RunMapToCommit(m);
      if (!reran.ok()) {
        FailJob(reran);
        break;
      }
      if (JobFailed()) break;
    }
    if (JobFailed()) {
      std::lock_guard<std::mutex> lock(mu_);
      groups_[static_cast<size_t>(s)].building = false;
      return false;
    }
    return true;
  }

  // Slow-start gate: no fetcher runs before `reduce_slowstart` of the maps
  // committed (mapreduce.job.reduce.slowstart.completedmaps). Backfills
  // the queues with everything already committed.
  void LaunchReducesLocked() {
    reduces_launched_ = true;
    launch_time_ = Clock::now();
    for (int r = 0; r < conf_.num_reduces; ++r) {
      for (int s = 0; s < num_streams_; ++s) {
        const GroupSlot& group = groups_[static_cast<size_t>(s)];
        if (group.committed_gen >= 0 &&
            group.committed_gen == group.target_gen) {
          EnqueueFetchLocked(r, s);
        }
      }
    }
  }

  void EnqueueFetchLocked(int r, int s) {
    ReduceShuffle& rs = reduces_[static_cast<size_t>(r)];
    // Once the final task is scheduled this reduce's inputs are frozen: a
    // reduce that finished fetching keeps consuming the generation it has
    // (byte-identical to any regeneration), like a Hadoop reducer that
    // completed its copy phase before a map re-ran for someone else.
    if (rs.final_scheduled) return;
    rs.fetch_queue.push_back(s);
    if (!rs.drain_scheduled) {
      rs.drain_scheduled = true;
      pool_.Submit(kShuffleLane, [this, r] { DrainFetches(r); });
    }
  }

  // ---- reduce side: fetch + background merge (the "copy phase") ----
  void DrainFetches(int r) {
    ReduceShuffle& rs = reduces_[static_cast<size_t>(r)];
    while (true) {
      std::vector<int> streams;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (job_failed_) {
          rs.drain_scheduled = false;
          return;
        }
        if (rs.fetch_queue.empty()) {
          rs.drain_scheduled = false;
          MaybeScheduleFinalLocked(r);
          return;
        }
        streams.swap(rs.fetch_queue);
      }
      rs.drain_busy_seconds += FetchStreams(r, &rs, streams);
    }
  }

  // One stream partition to fetch, resolved under mu_: its live generation
  // and the output that generation names.
  struct FetchWant {
    int stream = 0;
    int gen = -1;
    std::shared_ptr<const SpillSegment> segment;
    std::shared_ptr<const StoredSpill> stored;
  };

  // The reduce side's one fetch routine, used by the drain and by the final
  // task's refresh. Skips streams that are mid-regeneration (the fresh
  // publish re-enqueues them), already current, or listed twice (launch
  // backfill + commit event). Gets verified merge-ready bytes for the rest
  // in process or from one pipelined FetchBatch call, stores them, runs the
  // folds that became ready, and reports every stream it could not get as
  // lost. Returns the busy seconds, which exclude the in-process plane's
  // modelled transfer time.
  double FetchStreams(int r, ReduceShuffle* rs,
                      const std::vector<int>& streams) {
    std::vector<FetchWant> wants;
    {
      std::lock_guard<std::mutex> lock(mu_);
      std::vector<bool> queued(static_cast<size_t>(num_streams_), false);
      for (int s : streams) {
        const GroupSlot& group = groups_[static_cast<size_t>(s)];
        if (group.committed_gen < 0 ||
            group.committed_gen != group.target_gen ||
            rs->inputs[static_cast<size_t>(s)].generation ==
                group.committed_gen ||
            queued[static_cast<size_t>(s)]) {
          continue;
        }
        queued[static_cast<size_t>(s)] = true;
        wants.push_back(
            {s, group.committed_gen, group.segment, group.stored});
      }
    }
    if (wants.empty()) return 0;
    std::vector<FetchedInput> fetched(wants.size());
    std::vector<bool> got(wants.size(), false);
    Clock::time_point t0;
    if (transport_client_ == nullptr) {
      // Modelled transfer time: fixed latency + on-wire bytes / bandwidth
      // per partition, slept once for the batch before the busy window so
      // it lands in the shuffle-wait bucket (lifetime minus busy), not in
      // merge time. A compressed partition costs proportionally less
      // wall-clock than its raw form, which is the end-to-end win the codec
      // knob exists to measure. The tcp plane measures the real wire.
      double transfer_ms = 0;
      for (const FetchWant& want : wants) {
        transfer_ms += static_cast<double>(conf_.fetch_latency_ms);
        if (conf_.fetch_bandwidth_mbps > 0) {
          const double wire_bytes = static_cast<double>(
              want.stored != nullptr
                  ? want.stored->partitions()[static_cast<size_t>(r)].length
                  : want.segment->partitions[static_cast<size_t>(r)].length);
          transfer_ms += wire_bytes /
                         (conf_.fetch_bandwidth_mbps * 1024.0 * 1024.0) * 1e3;
        }
      }
      if (transfer_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(transfer_ms));
      }
      t0 = Clock::now();
      for (size_t i = 0; i < wants.size(); ++i) {
        got[i] = VerifyLocal(r, wants[i], &fetched[i]);
      }
    } else {
      t0 = Clock::now();
      std::vector<ShuffleFetchWant> remote;
      remote.reserve(wants.size());
      for (const FetchWant& want : wants) {
        remote.push_back({want.stream, r, static_cast<uint32_t>(want.gen)});
      }
      std::vector<ShuffleFetchResult> results =
          transport_client_->FetchBatch(remote);
      for (size_t i = 0; i < wants.size(); ++i) {
        got[i] = results[i].transport_ok &&
                 VerifyFetched(&results[i], &fetched[i]);
      }
    }
    bool any_stored = false;
    for (size_t i = 0; i < wants.size(); ++i) {
      if (!got[i]) continue;
      StoreInput(r, rs, wants[i].stream, wants[i].gen,
                 std::move(fetched[i]));
      any_stored = true;
    }
    if (any_stored) RunReadyNodes(r, rs);
    const auto t1 = Clock::now();
    AddBusy(t0, t1, /*merge_bucket=*/true);
    for (size_t i = 0; i < wants.size(); ++i) {
      // Lost: the first reporter re-executes the producers inline right
      // here, and that time is charged to the map phase, not the shuffle.
      if (!got[i]) HandleLostStream(r, wants[i].stream, wants[i].gen);
    }
    return Seconds(t1 - t0);
  }

  // Verifies partition `r` of an in-process output — the once-per-
  // generation CRC check; re-fetches of the same generation never re-hash —
  // and makes it merge-ready in `*out`. Returns false on a CRC mismatch or
  // an undecodable frame, which the caller reports.
  bool VerifyLocal(int r, const FetchWant& want, FetchedInput* out) {
    const bool codec_active =
        conf_.effective_map_output_codec() != MapOutputCodec::kNone;
    if (want.stored != nullptr) {
      // Disk-backed output: read the partition back through the store.
      // Block CRCs are always checked down there (single-bit damage healed
      // in place); passing checksum_map_output additionally re-checks the
      // partition-level CRC — the same end-to-end verify the resident path
      // does. A kDataLoss (torn tail, unrepairable block, corrupt_map
      // injection) is the familiar lost-output event; a kIOError (injected
      // eio_prob exhausting its retries) is reported the same way and heals
      // through re-execution rather than aborting. The read is this
      // reduce's own copy, so the extent handle need not be pinned.
      Result<std::string> part =
          want.stored->ReadPartition(r, conf_.checksum_map_output);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (conf_.checksum_map_output) ++result_.crc_verifications;
        if (!part.ok() && part.status().code() != StatusCode::kIOError) {
          ++result_.corruptions_detected;
        }
      }
      if (!part.ok()) return false;
      if (codec_active) return Inflate(*part, &out->decompressed);
      out->decompressed = std::move(part).value();
      return true;
    }
    if (conf_.checksum_map_output) {
      // CRC runs over the stored bytes — the compressed form when a codec
      // is active, so sealing and verification got cheaper too.
      const Status verify = VerifySegmentPartition(*want.segment, r);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++result_.crc_verifications;
        if (!verify.ok()) ++result_.corruptions_detected;
      }
      if (!verify.ok()) return false;
    }
    if (codec_active) {
      return Inflate(want.segment->PartitionData(r), &out->decompressed);
    }
    out->segment = want.segment;
    return true;
  }

  // Verifies one transport-fetched partition body end to end and makes it
  // merge-ready in `*out`. Spent wire buffers go back to the client's reuse
  // pool; the merge-ready bytes escape into `*out`.
  bool VerifyFetched(ShuffleFetchResult* fetched, FetchedInput* out) {
    if (fetched->status != FetchStatus::kOk) {
      // kStaleGeneration / kNotFound: the server moved past the generation
      // (or a replaced registration raced us). The commit that bumped the
      // generation re-publishes and re-enqueues this fetch, and
      // HandleLostStream is a no-op because the slot moved on.
      // kDataLoss: the registration is live but its backing bytes are gone
      // — a genuine lost output, re-executed via HandleLostStream.
      // kError (digest mismatch) can only be a wiring bug — treated as a
      // lost output so the job fails loudly through the attempt budget.
      return false;
    }
    std::string wire;  // partition bytes exactly as sealed (codec frames)
    if (fetched->encoding == FetchEncoding::kFrameStream) {
      wire = transport_client_->AcquireBuffer();
      const Status reassembled = ReassembleFrameStream(fetched->body, &wire);
      transport_client_->RecycleBuffer(std::move(fetched->body));
      if (!reassembled.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        ++result_.corruptions_detected;
        return false;
      }
    } else {
      wire = std::move(fetched->body);
    }
    if (conf_.checksum_map_output) {
      const bool matches = Crc32c(wire) == fetched->partition_crc;
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++result_.crc_verifications;
        if (!matches) ++result_.corruptions_detected;
      }
      if (!matches) return false;
    }
    if (conf_.effective_map_output_codec() == MapOutputCodec::kNone) {
      out->decompressed = std::move(wire);
      return true;
    }
    const bool inflated = Inflate(wire, &out->decompressed);
    transport_client_->RecycleBuffer(std::move(wire));
    return inflated;
  }

  // Decompresses a partition's sealed codec frames — once per (stream,
  // partition, generation); re-fetches of a stored generation never
  // re-inflate. A frame that fails to decode (its header CRC catches
  // corruption even when checksum verification is off) is the same
  // lost-output event as a CRC mismatch.
  bool Inflate(std::string_view sealed, std::string* out) {
    if (BlockDecompress(sealed, out).ok()) return true;
    std::lock_guard<std::mutex> lock(mu_);
    ++result_.corruptions_detected;
    return false;
  }

  // Installs verified merge-ready bytes as stream `s`'s input at `gen`. A
  // replaced generation counts as a stale fetch, and every fold that holds
  // slices of its bytes is reset before they go.
  void StoreInput(int r, ReduceShuffle* rs, int s, int gen,
                  FetchedInput fetched) {
    FetchedInput& input = rs->inputs[static_cast<size_t>(s)];
    if (input.generation >= 0) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++result_.stale_fetches_invalidated;
      }
      DirtyNodesCovering(rs, s);
    }
    input = std::move(fetched);
    input.generation = gen;
    input.slices = input.segment != nullptr
                       ? input.segment->PartitionSlices(r)
                       : std::vector<std::string_view>{input.decompressed};
  }

  // Invalidates every intermediate merge that folded stream `s`'s bytes.
  // Spans nest, so this covers all ancestors of the leaf too.
  void DirtyNodesCovering(ReduceShuffle* rs, int s) {
    for (size_t n = 0; n < plan_.nodes.size(); ++n) {
      const PlanNode& node = plan_.nodes[n];
      if (node.leaf_begin <= s && s < node.leaf_end) {
        rs->nodes[n] = NodeState();
      }
    }
  }

  // Declares stream `s`'s generation `gen` lost. The first reporter bumps
  // the stream's target generation, bumps every current member map, and
  // re-executes them inline on its own thread (so a worker is never parked
  // waiting for pool capacity); later reporters return immediately and
  // pick up the fresh publish's event. For a multi-member stream the last
  // member's re-commit triggers the group rebuild.
  void HandleLostStream(int r, int s, int gen) {
    (void)r;
    std::vector<int> reexec;
    {
      std::lock_guard<std::mutex> lock(mu_);
      GroupSlot& group = groups_[static_cast<size_t>(s)];
      if (group.target_gen != gen || group.committed_gen != gen) {
        return;  // not the first reporter; the slot already moved on
      }
      ++group.target_gen;
      for (int m = MemberBegin(s); m < MemberEnd(s); ++m) {
        MapSlot& slot = slots_[static_cast<size_t>(m)];
        if (slot.committed_gen >= 0 && slot.committed_gen == slot.target_gen) {
          ++slot.target_gen;
          reexec.push_back(m);
        }
      }
      for (int m : reexec) {
        if (slots_[static_cast<size_t>(m)].attempts_started >=
            conf_.max_task_attempts) {
          FailJobLocked(Status::DataLoss(StringPrintf(
              "map task %d output still corrupt after %d attempts", m,
              conf_.max_task_attempts)));
          return;
        }
      }
    }
    for (int m : reexec) {
      const Status status = RunMapToCommit(m);
      if (!status.ok()) {
        FailJob(status);
        return;
      }
      if (JobFailed()) return;
    }
  }

  // Folds every merge-plan node whose children are all available. Runs on
  // the drain (or final-task) thread; this is the MergeManager-style
  // background merge that keeps the final fan-in <= merge_factor.
  void RunReadyNodes(int r, ReduceShuffle* rs) {
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (size_t n = 0; n < plan_.nodes.size(); ++n) {
        if (rs->nodes[n].done) continue;
        const PlanNode& node = plan_.nodes[n];
        bool ready = true;
        for (const StreamRef& child : node.children) {
          if (child.leaf >= 0) {
            if (rs->inputs[static_cast<size_t>(child.leaf)].generation < 0) {
              ready = false;
              break;
            }
          } else if (!rs->nodes[static_cast<size_t>(child.node)].done) {
            ready = false;
            break;
          }
        }
        if (!ready) continue;
        std::vector<FramedRun> runs;
        runs.reserve(node.children.size());
        for (const StreamRef& child : node.children) {
          if (child.leaf >= 0) {
            runs.push_back(
                {rs->inputs[static_cast<size_t>(child.leaf)].slices,
                 child.leaf});
          } else {
            runs.push_back(
                {rs->nodes[static_cast<size_t>(child.node)].slices, -1});
          }
        }
        NodeState& state = rs->nodes[n];
        std::vector<int> corrupt_sources;
        // Merge-time combining, reduce side: fold output is a sorted run,
        // so the combiner collapses duplicate keys that straddled the
        // folded streams before the bytes sit in memory awaiting the final
        // merge — the MergeManager combine pass, gated by the same knob as
        // the map-side sibling.
        if (combiner_factory_ != nullptr && conf_.min_spills_for_combine > 0) {
          std::unique_ptr<Reducer> combiner = combiner_factory_(r);
          std::string combined;
          Result<MergeAppendStats> merged =
              MergeAndAppend(runs, comparator_, combiner.get(), conf_, r,
                             &combined, &corrupt_sources);
          if (!merged.ok()) {
            if (!corrupt_sources.empty()) {
              ReportCorruptSources(r, rs, node, corrupt_sources);
            } else {
              FailJob(Annotate(
                  merged.status(),
                  StringPrintf("reduce task %d: combining a merge fold", r)));
            }
            return;
          }
          {
            std::lock_guard<std::mutex> lock(mu_);
            result_.combine_reduce_input_records += merged->merged_records;
            result_.combine_reduce_input_bytes += merged->merged_bytes;
            result_.combine_reduce_output_records += merged->records;
            result_.combine_reduce_output_bytes += merged->bytes;
            combine_reduce_seconds_ += merged->combine_seconds;
          }
          state.combined = std::move(combined);
          state.slices.assign(1, state.combined);
        } else {
          Result<SlicedRun> merged =
              MergeFramedRuns(runs, comparator_, &corrupt_sources);
          if (!merged.ok()) {
            // Malformed bytes slipped past (checksums off). Blame the raw
            // producers and let the regeneration events redo this fold.
            ReportCorruptSources(r, rs, node, corrupt_sources);
            return;
          }
          state.slices = std::move(merged->slices);
        }
        state.done = true;
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++result_.intermediate_merges;
        }
        progressed = true;
      }
    }
  }

  // Reports every corrupt source stream of a failed fold. A -1 source is
  // one of our own intermediate outputs (should be impossible — we wrote
  // those bytes); blame its whole span to stay safe.
  void ReportCorruptSources(int r, ReduceShuffle* rs, const PlanNode& node,
                            const std::vector<int>& corrupt_sources) {
    std::vector<int> streams;
    for (int source : corrupt_sources) {
      if (source >= 0) {
        streams.push_back(source);
      } else {
        for (int s = node.leaf_begin; s < node.leaf_end; ++s) {
          streams.push_back(s);
        }
      }
    }
    std::sort(streams.begin(), streams.end());
    streams.erase(std::unique(streams.begin(), streams.end()),
                  streams.end());
    {
      std::lock_guard<std::mutex> lock(mu_);
      result_.corruptions_detected += static_cast<int64_t>(streams.size());
    }
    for (int s : streams) {
      int gen;
      {
        std::lock_guard<std::mutex> lock(mu_);
        gen = rs->inputs[static_cast<size_t>(s)].generation;
      }
      HandleLostStream(r, s, gen);
      if (JobFailed()) return;
    }
  }

  // Schedules the final merge+reduce once every stream's current
  // generation has been fetched and every background fold is done. Only
  // ever called by this reduce's drain with the queue empty, so the
  // drain-owned state is safe to read.
  void MaybeScheduleFinalLocked(int r) {
    ReduceShuffle& rs = reduces_[static_cast<size_t>(r)];
    if (rs.final_scheduled || job_failed_) return;
    for (int s = 0; s < num_streams_; ++s) {
      const GroupSlot& group = groups_[static_cast<size_t>(s)];
      if (group.committed_gen < 0 ||
          group.committed_gen != group.target_gen ||
          rs.inputs[static_cast<size_t>(s)].generation !=
              group.committed_gen) {
        return;
      }
    }
    for (const NodeState& node : rs.nodes) {
      if (!node.done) return;
    }
    rs.final_scheduled = true;
    pool_.Submit(kShuffleLane, [this, r] { ReduceTaskMain(r); });
  }

  // ---- reduce side: final merge + reduce function ----
  void ReduceTaskMain(int r) {
    ReduceShuffle& rs = reduces_[static_cast<size_t>(r)];
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (job_failed_) return;
      rs.final_start = Clock::now();
    }
    while (true) {
      if (JobFailed()) return;
      int attempt;
      {
        std::lock_guard<std::mutex> lock(mu_);
        attempt = rs.attempts_started++;
        ++result_.reduce_attempts;
        if (attempt > 0) ++result_.reduce_retries;
      }
      if (journal_ != nullptr) {
        JournalAppend(journal_->AppendAttemptStart(/*is_map=*/false, r,
                                                   attempt));
        if (JobFailed()) return;
      }
      CancelToken token;
      const int64_t ticket = watchdog_.Arm(&token);
      const auto t0 = Clock::now();
      ReduceAttemptOutcome outcome = RunReduceFinal(r, &rs, attempt, &token);
      const auto t1 = Clock::now();
      AddBusy(t0, t1, /*merge_bucket=*/false);
      if (outcome.status.ok()) {
        watchdog_.Disarm(ticket);
        if (journal_ != nullptr) {
          const Status committed = CommitReduceJournaled(
              r, &rs, attempt, std::move(outcome.committed));
          if (committed.ok()) return;
          // Staging the part file failed (an I/O problem, not bad reduce
          // output) — charge it like any other attempt failure and retry.
          if (!HandleReduceFailure(r, &rs, committed)) return;
          continue;
        }
        std::lock_guard<std::mutex> lock(mu_);
        rs.committed = std::move(outcome.committed);
        rs.completed = true;
        return;
      }
      if (!outcome.corrupt_streams.empty()) {
        // Mid-merge DataLoss (the detection path when checksums are off):
        // the producers' fault. Re-execute them, re-fetch, and re-run this
        // reduce as a fresh attempt without charging its failure budget.
        {
          std::lock_guard<std::mutex> lock(mu_);
          result_.corruptions_detected +=
              static_cast<int64_t>(outcome.corrupt_streams.size());
        }
        for (int s : outcome.corrupt_streams) {
          int gen;
          {
            std::lock_guard<std::mutex> lock(mu_);
            gen = rs.inputs[static_cast<size_t>(s)].generation;
          }
          HandleLostStream(r, s, gen);
          if (JobFailed()) {
            watchdog_.Disarm(ticket);
            return;
          }
        }
        const Status refreshed = RefreshInputs(r, &rs, &token);
        watchdog_.Disarm(ticket);
        if (!refreshed.ok()) {
          if (!HandleReduceFailure(r, &rs, refreshed)) return;
        }
        continue;
      }
      watchdog_.Disarm(ticket);
      if (!HandleReduceFailure(r, &rs, outcome.status)) return;
    }
  }

  // Journal-mode reduce commit — the two-phase output protocol. The staged
  // pairs are serialized and fsync'd to the attempt's private staging file
  // first, outside the lock; then, under the lock, the file is promoted
  // with one rename and the reduce-commit record appended. A crash at any
  // instant leaves durable state resume can reconcile: a staged orphan is
  // swept, a committed part without its record is re-committed with
  // identical bytes, a record always describes a committed part. On
  // success `rs` is marked completed. Returns non-OK only for staging I/O
  // failures, which the caller charges as an attempt failure.
  Status CommitReduceJournaled(int r, ReduceShuffle* rs, int attempt,
                               ReduceTaskOutcome outcome) {
    uint32_t part_crc = 0;
    const std::string blob = EncodeReducePart(outcome.output, &part_crc);
    const std::string staged = committer_->AttemptPath(r, attempt);
    const Status written = WriteFileDurable(staged, blob);
    if (!written.ok()) {
      return Annotate(written,
                      StringPrintf("reduce task %d: staging output", r));
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (job_failed_) {
      ::unlink(staged.c_str());
      return Status::OK();
    }
    JournalReduceCommit commit;
    commit.task = r;
    commit.attempt = attempt;
    commit.groups = outcome.groups;
    commit.output_records = static_cast<int64_t>(outcome.output.size());
    for (const auto& [key, value] : outcome.output) {
      commit.output_bytes += static_cast<int64_t>(key.size() + value.size());
    }
    // Input-side stats captured into the record so a resume that adopts
    // this reduce can report them without any map output present. These
    // count what the shuffle served — node-combined streams, when on.
    for (int s = 0; s < num_streams_; ++s) {
      const GroupSlot& group = groups_[static_cast<size_t>(s)];
      const SpillSegment::PartitionRange& range =
          group.stored != nullptr
              ? group.stored->partitions()[static_cast<size_t>(r)]
              : group.segment->partitions[static_cast<size_t>(r)];
      commit.input_records += range.records;
      commit.input_bytes += range.raw_bytes();
    }
    commit.part_bytes = static_cast<int64_t>(blob.size());
    commit.part_crc = part_crc;
    const Status promoted = committer_->CommitTask(r, attempt);
    if (!promoted.ok()) {
      FailJobLocked(Annotate(
          promoted, StringPrintf("reduce task %d: committing output", r)));
      return Status::OK();
    }
    const Status appended = journal_->AppendReduceCommit(commit);
    if (!appended.ok()) {
      FailJobLocked(Annotate(appended, "job journal append"));
      return Status::OK();
    }
    rs->committed = std::move(outcome);
    rs->completed = true;
    MaybeCrashLocked(CrashEvent::kReduceCommit);
    return Status::OK();
  }

  // Charges a genuine reduce failure against the task's budget. Returns
  // false when the job is failing (budget exhausted).
  bool HandleReduceFailure(int r, ReduceShuffle* rs, const Status& status) {
    bool exhausted;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (journal_ != nullptr) {
        const Status logged = journal_->AppendAttemptFail(
            /*is_map=*/false, r, rs->attempts_started - 1);
        if (!logged.ok()) FailJobLocked(Annotate(logged, "job journal append"));
      }
      if (status.code() == StatusCode::kDeadlineExceeded) {
        ++result_.watchdog_timeouts;
      }
      exhausted = ++rs->failures >= conf_.max_task_attempts;
    }
    if (exhausted) {
      FailJob(Annotate(status,
                       StringPrintf("reduce task %d failed after %d attempts",
                                    r, conf_.max_task_attempts)));
      return false;
    }
    return true;
  }

  // Blocks until stream `s` has a committed, current generation. Waits in
  // short slices so the watchdog token stays responsive.
  Status WaitUntilCurrent(int s, CancelToken* token) {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      if (job_failed_) {
        return Status::Internal("job failed while waiting for map output");
      }
      const GroupSlot& group = groups_[static_cast<size_t>(s)];
      if (group.committed_gen >= 0 &&
          group.committed_gen == group.target_gen) {
        return Status::OK();
      }
      if (token != nullptr && token->cancelled()) {
        return Status::DeadlineExceeded(StringPrintf(
            "cancelled while waiting for shuffle stream %d to re-commit", s));
      }
      const auto t0 = Clock::now();
      cv_.wait_for(lock, std::chrono::milliseconds(10));
      shuffle_wait_busy_ += Seconds(Clock::now() - t0);
    }
  }

  // Brings every input back to the current generation after a mid-merge
  // corruption (final task only; drains are frozen out by final_scheduled,
  // so this thread owns the fetch state again): waits until every stream
  // has re-committed, fetches the stale ones, and repeats while a refetch
  // came back corrupt again.
  Status RefreshInputs(int r, ReduceShuffle* rs, CancelToken* token) {
    while (true) {
      std::vector<int> stale;
      for (int s = 0; s < num_streams_; ++s) {
        MRMB_RETURN_IF_ERROR(WaitUntilCurrent(s, token));
        std::lock_guard<std::mutex> lock(mu_);
        if (rs->inputs[static_cast<size_t>(s)].generation !=
            groups_[static_cast<size_t>(s)].committed_gen) {
          stale.push_back(s);
        }
      }
      if (stale.empty()) break;
      FetchStreams(r, rs, stale);
    }
    for (const NodeState& node : rs->nodes) {
      if (!node.done) {
        // A fold whose refetched inputs are all current should have run;
        // surface the miss as DataLoss so the attempt loop retries.
        return Status::DataLoss(StringPrintf(
            "reduce task %d: background merge kept failing on refetch", r));
      }
    }
    return Status::OK();
  }

  // The final bounded-fan-in merge + reduce function, staged and committed
  // like any attempt. No checksum work here: every input was verified at
  // fetch time (once per generation) by the drain.
  ReduceAttemptOutcome RunReduceFinal(int r, ReduceShuffle* rs, int attempt,
                                      CancelToken* cancel) {
    ReduceAttemptOutcome outcome;
    const int64_t delay = injector_.ReduceDelayMs(r, attempt);
    if (delay > 0 && !cancel->SleepFor(delay)) {
      outcome.status = Status::DeadlineExceeded(StringPrintf(
          "reduce task %d attempt %d cancelled during injected %lld ms stall",
          r, attempt, static_cast<long long>(delay)));
      return outcome;
    }
    if (injector_.ShouldFailReduce(r, attempt)) {
      outcome.status = Status::Internal(StringPrintf(
          "injected failure of reduce task %d attempt %d", r, attempt));
      return outcome;
    }

    // Final streams in ascending leaf-span order; the merge's input-index
    // tie-break then reproduces the flat merge's equal-key order exactly.
    std::vector<std::unique_ptr<RecordStream>> inputs;
    std::vector<const RecordStream*> readers;
    std::vector<std::pair<int, int>> spans;  // blame span per stream
    inputs.reserve(plan_.final_streams.size());
    for (const StreamRef& ref : plan_.final_streams) {
      std::unique_ptr<SegmentReader> reader;
      if (ref.leaf >= 0) {
        reader = std::make_unique<SegmentReader>(
            rs->inputs[static_cast<size_t>(ref.leaf)].slices,
            comparator_->type());
        spans.emplace_back(ref.leaf, ref.leaf + 1);
      } else {
        const PlanNode& node = plan_.nodes[static_cast<size_t>(ref.node)];
        reader = std::make_unique<SegmentReader>(
            rs->nodes[static_cast<size_t>(ref.node)].slices,
            comparator_->type());
        spans.emplace_back(node.leaf_begin, node.leaf_end);
      }
      readers.push_back(reader.get());
      inputs.push_back(std::move(reader));
    }
    MergeIterator merged(std::move(inputs), comparator_);
    GroupedIterator groups(&merged, comparator_);
    std::unique_ptr<Reducer> reducer = reducer_factory_(r);
    StagedReduceContext context(conf_, r, cancel);
    while (context.status().ok() && groups.NextGroup()) {
      ++outcome.committed.groups;
      GroupValues values(&groups);
      reducer->Reduce(groups.group_key(), &values, &context);
    }
    if (!context.status().ok()) {
      outcome.status = context.status();
      return outcome;
    }
    // A malformed stream drops out of the merge tree instead of crashing;
    // it surfaces here. This is the only detection path when checksum
    // verification is disabled (and a second line of defence when not).
    for (size_t i = 0; i < readers.size(); ++i) {
      if (!readers[i]->status().ok()) {
        for (int s = spans[i].first; s < spans[i].second; ++s) {
          outcome.corrupt_streams.push_back(s);
        }
      }
    }
    if (!outcome.corrupt_streams.empty()) {
      outcome.status = Status::DataLoss(StringPrintf(
          "reduce task %d: %zu shuffle stream partition(s) were malformed "
          "mid-merge",
          r, outcome.corrupt_streams.size()));
      return outcome;
    }
    outcome.committed.output = context.TakeOutput();
    return outcome;
  }

  // ---- crash safety: journal setup, orphan sweep, adoption ----

  // The job's durable home: digest-keyed so different jobs sharing a
  // spill_dir never collide, and a resumed run finds exactly its own state.
  std::string JobDirPath() const {
    return StringPrintf("%s/mrmb-job-%016llx", conf_.spill_dir.c_str(),
                        static_cast<unsigned long long>(conf_.Digest()));
  }

  Status SetupCrashSafety() {
    namespace fs = std::filesystem;
    job_dir_ = JobDirPath();
    const std::string journal_path = job_dir_ + "/journal";
    result_.journal_enabled = true;
    std::error_code ec;
    if (!conf_.resume) {
      // A fresh journaled run owns the job dir outright; leftovers belong
      // to an abandoned run of the same job and would shadow new state.
      fs::remove_all(job_dir_, ec);
    }
    fs::create_directories(job_dir_ + "/extents", ec);
    if (ec) {
      return Status::IOError(StringPrintf("cannot create %s: %s",
                                          job_dir_.c_str(),
                                          ec.message().c_str()));
    }
    committer_ = std::make_unique<FileOutputCommitter>(job_dir_ + "/output");
    JournalRunStart run_start;
    run_start.digest = conf_.Digest();
    run_start.num_maps = conf_.num_maps;
    run_start.num_reduces = conf_.num_reduces;
    if (conf_.resume) {
      Result<std::unique_ptr<JobJournal>> journal =
          JobJournal::OpenForResume(journal_path, run_start, &replay_);
      if (!journal.ok()) {
        return Annotate(journal.status(), "resuming the job journal");
      }
      journal_ = std::move(journal).value();
      resume_active_ = true;
      result_.resumed = true;
      result_.journal_records_replayed = replay_.records_replayed;
    } else {
      Result<std::unique_ptr<JobJournal>> journal =
          JobJournal::Create(journal_path, run_start);
      if (!journal.ok()) {
        return Annotate(journal.status(), "creating the job journal");
      }
      journal_ = std::move(journal).value();
    }
    MRMB_RETURN_IF_ERROR(committer_->SetupJob());
    if (resume_active_) result_.orphans_swept += SweepJobDirOrphans();
    return Status::OK();
  }

  // GC of durable files a crashed run leaves behind but the journal's
  // valid prefix does not reference: half-written `*.tmp` extents, extents
  // of attempts whose commit record never landed, and `_temporary` staging
  // output. Runs before the store opens, so a swept extent can never be a
  // live handle's file.
  int64_t SweepJobDirOrphans() {
    namespace fs = std::filesystem;
    int64_t swept = 0;
    std::set<std::string> referenced;
    for (const auto& [task, commit] : replay_.map_commits) {
      if (commit.has_extent) referenced.insert(commit.extent.file_name);
    }
    std::error_code ec;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(job_dir_ + "/extents", ec)) {
      const std::string name = entry.path().filename().string();
      if (referenced.count(name) > 0) continue;
      std::error_code remove_ec;
      if (fs::remove(entry.path(), remove_ec) && !remove_ec) ++swept;
    }
    const Result<int64_t> staging = committer_->CleanupOrphans();
    if (staging.ok()) swept += staging.value();
    return swept;
  }

  // Startup GC for plain (journal-off) spill_dir runs: store directories
  // are named mrmb-spill-<pid>-<counter>, so one whose pid no longer
  // exists was left by a crashed process and can never be reattached.
  int64_t SweepDeadSpillDirs() {
    namespace fs = std::filesystem;
    int64_t swept = 0;
    std::error_code ec;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(conf_.spill_dir, ec)) {
      const std::string name = entry.path().filename().string();
      long pid = 0;
      if (std::sscanf(name.c_str(), "mrmb-spill-%ld-", &pid) != 1) continue;
      if (pid <= 0 || pid == static_cast<long>(::getpid())) continue;
      if (::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH) {
        continue;  // still alive (or unknowable) — leave it
      }
      std::error_code remove_ec;
      if (fs::remove_all(entry.path(), remove_ec) > 0 && !remove_ec) ++swept;
    }
    return swept;
  }

  // Rebuilds scheduler state from the replayed journal: committed reduces
  // re-load their part files, committed maps re-adopt their durable
  // extents, and attempt numbering continues where the crash left off. A
  // task whose durable state fails verification simply stays un-adopted —
  // re-running it reproduces identical bytes by the determinism contract.
  // Runs single-threaded before the pool sees any work.
  void AdoptFromJournal() {
    for (const auto& [task, started] : replay_.map_attempts) {
      if (task >= 0 && task < conf_.num_maps) {
        slots_[static_cast<size_t>(task)].attempts_started = started;
      }
    }
    for (const auto& [task, started] : replay_.reduce_attempts) {
      if (task >= 0 && task < conf_.num_reduces) {
        reduces_[static_cast<size_t>(task)].attempts_started = started;
      }
    }
    for (const auto& [r, commit] : replay_.reduce_commits) {
      if (r < 0 || r >= conf_.num_reduces) continue;
      Result<std::vector<std::pair<std::string, std::string>>> pairs =
          LoadReducePart(committer_->CommittedPath(r), commit);
      if (!pairs.ok()) {
        // Damaged or missing part file: drop the committed name so the
        // re-run's commit can promote a fresh copy, and count the loss as
        // one more orphan swept.
        ::unlink(committer_->CommittedPath(r).c_str());
        ++result_.orphans_swept;
        continue;
      }
      ReduceShuffle& rs = reduces_[static_cast<size_t>(r)];
      rs.committed.output = std::move(pairs).value();
      rs.committed.groups = commit.groups;
      rs.completed = true;
      rs.final_scheduled = true;  // freezes fetch/final scheduling out
      reduce_adopted_[static_cast<size_t>(r)] = 1;
      ++result_.reduces_adopted;
    }
    all_reduces_adopted_ = result_.reduces_adopted == conf_.num_reduces;
    for (const auto& [m, commit] : replay_.map_commits) {
      if (m < 0 || m >= conf_.num_maps) continue;
      MapSlot& slot = slots_[static_cast<size_t>(m)];
      if (all_reduces_adopted_) {
        // Every reduce is adopted, so nothing will ever fetch map output
        // (all reduces committed implies all maps had too) — only the
        // committed attempts' counters matter.
        slot.stats = FromJournalStats(commit.stats);
        continue;
      }
      if (!commit.has_extent) continue;  // RAM-degraded: died with the run
      SpillStore::AdoptSpec spec;
      spec.file_name = commit.extent.file_name;
      spec.task = m;
      spec.attempt = commit.attempt;
      spec.file_bytes = commit.extent.file_bytes;
      spec.logical_bytes = commit.extent.logical_bytes;
      spec.partitions = commit.extent.partitions;
      Result<std::shared_ptr<const StoredSpill>> adopted = store_->Adopt(spec);
      if (!adopted.ok()) continue;  // damaged extent: the map just re-runs
      slot.stored = std::move(adopted).value();
      slot.segment.reset();
      slot.committed_gen = 0;
      slot.target_gen = 0;
      const int s = StreamOf(m);
      if (GroupSizeOf(s) == 1) {
        GroupSlot& group = groups_[static_cast<size_t>(s)];
        group.stored = slot.stored;
        group.segment.reset();
        group.committed_gen = 0;
        group.target_gen = 0;
        if (transport_server_ != nullptr) {
          transport_server_->Publish(s, 0, nullptr, group.stored);
        }
      }
      // Multi-member streams stay unpublished here: combined segments are
      // derived state (their extents were swept as orphans above), so
      // Execute rebuilds fully-adopted groups before the pool spins up and
      // partially-adopted ones rebuild when their last member re-commits.
      slot.initial_committed = true;
      slot.stats = FromJournalStats(commit.stats);
      ++initial_commits_;
      ++result_.maps_adopted;
    }
    if (all_reduces_adopted_) initial_commits_ = conf_.num_maps;
  }

  const JobConf& conf_;
  InputFormat* input_format_;
  const std::vector<InputSplit> splits_;
  const MapperFactory& mapper_factory_;
  const ReducerFactory& reducer_factory_;
  const PartitionerFactory& partitioner_factory_;
  const ReducerFactory& combiner_factory_;
  const RawComparator* comparator_;
  const LocalFaultInjector injector_;
  const int group_size_;   // node-combine block size (1 = in-node off)
  const int num_streams_;  // shuffle streams = ceil(num_maps / group_size_)
  const MergePlan plan_;
  ThreadPool pool_;
  Watchdog watchdog_;
  const int slowstart_threshold_;

  // Disk spill engine (null when off). Declared before slots_/reduces_ so
  // it outlives every StoredSpill handle they hold: handle destructors
  // release their extents back into the store. The hooks must likewise
  // outlive the store.
  std::unique_ptr<SpillIoHooks> spill_hooks_;
  std::unique_ptr<SpillStore> store_;

  // Real-socket shuffle data plane (both null with shuffle_transport =
  // inproc). Declared after store_: the server pins StoredSpill handles
  // (plus its own extent fds), so it must tear down before the store does.
  std::unique_ptr<ShuffleTransportServer> transport_server_;
  std::unique_ptr<ShuffleTransportClient> transport_client_;

  // Crash-safe job state (null/empty when the journal is off).
  std::unique_ptr<JobJournal> journal_;
  std::unique_ptr<FileOutputCommitter> committer_;
  std::string job_dir_;
  JournalReplay replay_;
  bool resume_active_ = false;
  bool all_reduces_adopted_ = false;
  std::vector<char> reduce_adopted_;  // per reduce: committed output reused
  // Set at job commit: the extents dir, removable once the job succeeded.
  std::string success_cleanup_dir_;

  std::mutex mu_;
  // crash_at occurrence counters, indexed by CrashEvent (guarded by mu_).
  int64_t crash_counts_[4] = {0, 0, 0, 0};
  std::condition_variable cv_;
  std::vector<MapSlot> slots_;
  std::vector<GroupSlot> groups_;  // per shuffle stream, guarded by mu_
  std::vector<ReduceShuffle> reduces_;
  // Combine CPU outside map attempts (guarded by mu_): reduce-side fold
  // combines and in-node builds.
  double combine_reduce_seconds_ = 0;
  double combine_node_seconds_ = 0;
  int initial_commits_ = 0;
  bool reduces_launched_ = false;
  bool map_phase_done_ = false;
  Clock::time_point launch_time_{};
  Clock::time_point map_phase_end_{};
  bool job_failed_ = false;
  Status job_error_;
  double shuffle_merge_busy_ = 0;
  double reduce_compute_busy_ = 0;
  double shuffle_wait_busy_ = 0;
  double overlap_busy_ = 0;
  LocalJobResult result_;
};

Status PipelinedJob::Execute(OutputFormat* output_format,
                             LocalJobResult* result) {
  const auto start = Clock::now();
  if (conf_.journal_enabled()) {
    MRMB_RETURN_IF_ERROR(SetupCrashSafety());
  } else if (!conf_.spill_dir.empty()) {
    result_.orphans_swept += SweepDeadSpillDirs();
  }
  if (conf_.spill_engine_enabled()) {
    spill_hooks_ = std::make_unique<LocalSpillIoHooks>(conf_.local_fault_plan,
                                                       conf_.seed);
    SpillStoreOptions options;
    // Journaled jobs keep extents in the job's own durable directory so
    // they survive the process and resume can re-adopt them by name.
    options.dir = journal_ != nullptr ? job_dir_ + "/extents" : conf_.spill_dir;
    options.exact_dir = journal_ != nullptr;
    options.durable = journal_ != nullptr;
    options.cache_bytes = conf_.spill_cache_bytes;
    options.block_bytes = conf_.spill_block_bytes;
    // Extents reuse the map-output codec for their blocks; kNone still
    // writes CRC-framed (stored) blocks, so scrub/repair work either way.
    options.block_codec = conf_.effective_map_output_codec();
    options.scrub_after_seal = conf_.spill_scrub;
    options.use_mmap = conf_.spill_mmap;
    Result<std::unique_ptr<SpillStore>> store =
        SpillStore::Open(options, spill_hooks_.get());
    if (!store.ok()) {
      return Annotate(store.status(), "opening the spill store");
    }
    store_ = std::move(store).value();
  }
  if (conf_.shuffle_transport == ShuffleTransport::kTcp) {
    ShuffleTransportServer::Options server_options;
    server_options.job_digest = conf_.Digest();
    server_options.reactors = conf_.shuffle_server_reactors;
    server_options.socket_buffer_bytes = conf_.shuffle_socket_buffer_bytes;
    // The hook runs on the epoll thread and only touches the (immutable)
    // injector — it must never take mu_, or Publish-under-mu_ would
    // deadlock against a concurrent fetch.
    server_options.fault_hook = [this](int map,
                                       int64_t fetch_seq) -> TransportFault {
      if (injector_.DropConnAt(map, fetch_seq)) {
        return TransportFault::kDropConn;
      }
      if (injector_.TruncFrameAt(map, fetch_seq)) {
        return TransportFault::kTruncFrame;
      }
      return TransportFault::kNone;
    };
    Result<std::unique_ptr<ShuffleTransportServer>> server =
        ShuffleTransportServer::Start(server_options);
    if (!server.ok()) {
      return Annotate(server.status(), "starting the shuffle transport");
    }
    transport_server_ = std::move(server).value();
    ShuffleTransportClient::Options client_options;
    client_options.job_digest = conf_.Digest();
    client_options.port = transport_server_->port();
    client_options.parallel_streams = conf_.fetch_parallel_streams;
    client_options.window_init = conf_.fetch_window_init;
    client_options.window_max = conf_.fetch_window_max;
    client_options.max_attempts = kTransportFetchAttempts;
    client_options.socket_buffer_bytes = conf_.shuffle_socket_buffer_bytes;
    client_options.delay_ms_hook = [this](int map, int64_t fetch_seq) {
      return injector_.SlowPeerDelayMs(map, fetch_seq);
    };
    transport_client_ =
        std::make_unique<ShuffleTransportClient>(client_options);
    result_.transport_enabled = true;
  }
  bool crashed_at_start = false;
  if (journal_ != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    crashed_at_start = MaybeCrashLocked(CrashEvent::kJobStart);
  }
  if (!crashed_at_start && resume_active_) AdoptFromJournal();
  if (!crashed_at_start && !all_reduces_adopted_ && group_size_ > 1) {
    // Rebuild the node-combined segment of every fully-adopted group now,
    // single-threaded, before any pool work: the combined extents were
    // swept as orphans, and a group whose members all adopted will never
    // see another member commit to trigger the build.
    for (int s = 0; s < num_streams_; ++s) {
      if (GroupSizeOf(s) == 1 || !AllMembersCurrentLocked(s)) continue;
      {
        std::lock_guard<std::mutex> lock(mu_);
        groups_[static_cast<size_t>(s)].building = true;
      }
      BuildGroup(s);
      if (JobFailed()) break;
    }
  }
  if (!crashed_at_start && !all_reduces_adopted_) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (initial_commits_ == conf_.num_maps && initial_commits_ > 0) {
        // Every map adopted: the map phase happened in a previous life.
        map_phase_done_ = true;
        map_phase_end_ = Clock::now();
      }
      if (!reduces_launched_ && initial_commits_ >= slowstart_threshold_) {
        LaunchReducesLocked();
      }
    }
    for (int m = 0; m < conf_.num_maps; ++m) {
      if (slots_[static_cast<size_t>(m)].committed_gen >= 0) continue;
      pool_.Submit(kMapLane, [this, m] { MapTaskMain(m); });
    }
    pool_.Wait();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (job_failed_) return job_error_;
  }
  for (const ReduceShuffle& rs : reduces_) {
    // Every reduce must have run its final task by now; anything else is a
    // scheduler bug, not a recoverable condition.
    MRMB_CHECK(rs.completed);
  }

  *result = std::move(result_);
  const size_t num_maps = static_cast<size_t>(conf_.num_maps);
  const size_t num_reduces = static_cast<size_t>(conf_.num_reduces);
  result->reducer_input_records.assign(num_reduces, 0);
  result->reducer_input_bytes.assign(num_reduces, 0);
  for (size_t m = 0; m < num_maps; ++m) {
    const MapTaskStats& stats = slots_[m].stats;
    result->map_input_records += stats.input_records;
    result->map_output_records += stats.output_records;
    result->spill_count += stats.spill_count;
    result->combine_removed_records += stats.combine_removed;
    result->map_output_bytes += stats.output_bytes;
    result->map_output_wire_bytes += stats.wire_bytes;
    result->spilled_bytes += stats.spilled_bytes;
    result->spill_extents += stats.spill_extents;
    result->spill_degradations += stats.spill_degradations;
    result->combine_spill_input_records += stats.combine.spill_input_records;
    result->combine_spill_output_records +=
        stats.combine.spill_output_records;
    result->combine_spill_input_bytes += stats.combine.spill_input_bytes;
    result->combine_spill_output_bytes += stats.combine.spill_output_bytes;
    result->combine_merge_input_records += stats.combine.merge_input_records;
    result->combine_merge_output_records +=
        stats.combine.merge_output_records;
    result->combine_merge_input_bytes += stats.combine.merge_input_bytes;
    result->combine_merge_output_bytes += stats.combine.merge_output_bytes;
    result->combine_seconds +=
        static_cast<double>(stats.combine.combine_micros) / 1e6;
  }
  // Reduce-side fold combines and in-node builds were accumulated live
  // (they are job-level, not per-attempt, work).
  result->combine_seconds += combine_reduce_seconds_ + combine_node_seconds_;
  result->shuffle_streams = num_streams_;
  if (store_ != nullptr) {
    // Store-wide counters (covers failed attempts' extents too, which the
    // per-committed-attempt sums above deliberately exclude).
    result->spill_engine_enabled = true;
    const SpillStoreStats ss = store_->stats();
    result->spill_cache_hits = ss.cache_hits;
    result->spill_cache_misses = ss.cache_misses;
    result->spill_cache_evictions = ss.cache_evictions;
    result->spill_blocks_repaired = ss.blocks_repaired;
    result->spill_blocks_lost = ss.blocks_lost;
    result->spill_short_reads = ss.short_reads;
    result->spill_read_errors = ss.read_errors;
    result->spill_scrubbed_blocks = ss.scrubbed_blocks;
    const int64_t lookups = ss.cache_hits + ss.cache_misses;
    result->spill_cache_hit_rate =
        lookups > 0 ? static_cast<double>(ss.cache_hits) /
                          static_cast<double>(lookups)
                    : 0.0;
  }
  if (transport_client_ != nullptr) {
    // All fetch traffic is done (the pool drained above); snapshot the data
    // plane's counters, then tear it down before the store goes away.
    const ShuffleClientStats client_stats = transport_client_->stats();
    result->transport_fetch_rpcs = client_stats.rpcs;
    result->transport_fetched_partitions = client_stats.fetches;
    result->transport_wire_bytes = client_stats.wire_bytes;
    result->transport_retransmits = client_stats.retransmits;
    result->transport_reconnects = client_stats.reconnects;
    result->transport_pool_hit_rate = client_stats.pool_hit_rate;
    result->transport_window_peak = client_stats.window_peak;
    result->transport_fetch_mean_ms = client_stats.fetch_mean_ms;
    result->transport_fetch_p99_ms = client_stats.fetch_p99_ms;
    const ShuffleServerStats server_stats = transport_server_->stats();
    result->transport_stale_refusals =
        server_stats.stale_refused + server_stats.not_found;
    result->transport_ram_serves = server_stats.ram_serves;
    result->transport_file_serves = server_stats.file_serves;
    transport_client_.reset();
    transport_server_.reset();
  }
  result->map_output_compression_ratio =
      result->map_output_bytes > 0
          ? static_cast<double>(result->map_output_wire_bytes) /
                static_cast<double>(result->map_output_bytes)
          : 1.0;
  // Wire bytes the shuffle serves at the final generations. Without
  // in-node combining every stream aliases one map output, so this equals
  // map_output_wire_bytes; with it, the combined segments' (smaller)
  // footprint is the extra cut the in-node stage buys on top of the
  // map-side stages. An all-adopted resume never populated the streams —
  // no shuffle happened, so the serve side degenerates to the wire bytes.
  bool streams_live = true;
  for (const GroupSlot& group : groups_) {
    if (group.committed_gen < 0) {
      streams_live = false;
      break;
    }
  }
  if (streams_live) {
    for (const GroupSlot& group : groups_) {
      const std::vector<SpillSegment::PartitionRange>& parts =
          group.stored != nullptr ? group.stored->partitions()
                                  : group.segment->partitions;
      for (const SpillSegment::PartitionRange& range : parts) {
        result->shuffle_serve_bytes += range.length;
      }
    }
  } else {
    result->shuffle_serve_bytes = result->map_output_wire_bytes;
  }
  result->shuffle_savings_ratio =
      result->map_output_wire_bytes > 0
          ? 1.0 - static_cast<double>(result->shuffle_serve_bytes) /
                      static_cast<double>(result->map_output_wire_bytes)
          : 0.0;
  // Commit: write staged reduce output in task order from this (the
  // coordinating) thread — failed attempts never reached here, so the
  // OutputFormat only ever sees complete, committed task output. The
  // fingerprint folds each reduce's identity, group/pair counts, and
  // length-framed output bytes, so byte-identity across runs (including
  // crashed-then-resumed ones) is one integer comparison.
  uint32_t fingerprint = kCrc32cInit;
  std::string fp_frame;
  BufferWriter fp_writer(&fp_frame);
  for (size_t r = 0; r < num_reduces; ++r) {
    if (reduce_adopted_[r] != 0) {
      // Adopted reduces report the shuffle load recorded at their original
      // commit — no map output need exist in this process at all.
      const JournalReduceCommit& commit =
          replay_.reduce_commits.at(static_cast<int>(r));
      result->reducer_input_records[r] = commit.input_records;
      result->reducer_input_bytes[r] = commit.input_bytes;
    } else {
      for (size_t s = 0; s < static_cast<size_t>(num_streams_); ++s) {
        const GroupSlot& group = groups_[s];
        const SpillSegment::PartitionRange& range =
            group.stored != nullptr ? group.stored->partitions()[r]
                                    : group.segment->partitions[r];
        result->reducer_input_records[r] += range.records;
        // Logical (decompressed) bytes: what the reducer merge consumed, so
        // the counter is codec-invariant; the wire side lives in
        // map_output_wire_bytes / map_output_compression_ratio.
        result->reducer_input_bytes[r] += range.raw_bytes();
      }
    }
    result->reduce_groups += reduces_[r].committed.groups;
    fp_writer.Clear();
    fp_writer.AppendFixed32(static_cast<uint32_t>(r));
    fp_writer.AppendFixed64(
        static_cast<uint64_t>(reduces_[r].committed.groups));
    fp_writer.AppendFixed64(
        static_cast<uint64_t>(reduces_[r].committed.output.size()));
    fingerprint = Crc32c(fingerprint, fp_frame);
    std::unique_ptr<RecordWriter> writer =
        output_format->CreateWriter(conf_, static_cast<int>(r));
    for (const auto& [key, value] : reduces_[r].committed.output) {
      writer->Write(key, value);
      fp_writer.Clear();
      fp_writer.AppendVarint64(static_cast<int64_t>(key.size()));
      fp_writer.AppendVarint64(static_cast<int64_t>(value.size()));
      fingerprint = Crc32c(fingerprint, fp_frame);
      fingerprint = Crc32c(fingerprint, key);
      fingerprint = Crc32c(fingerprint, value);
      result->output_records += 1;
      result->output_bytes += static_cast<int64_t>(key.size() + value.size());
    }
    MRMB_RETURN_IF_ERROR(writer->Close());
  }
  result->output_fingerprint = fingerprint;
  for (int64_t records : result->reducer_input_records) {
    result->reduce_input_records += records;
  }

  if (journal_ != nullptr) {
    // Job commit: seal the output directory (drop `_temporary`, write
    // `_SUCCESS`), then log it. A crash_at:job_commit point fires with the
    // job actually complete — resuming it must be a no-op.
    MRMB_RETURN_IF_ERROR(committer_->CommitJob());
    const Status appended = journal_->AppendJobCommit();
    if (!appended.ok()) return Annotate(appended, "job journal append");
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (MaybeCrashLocked(CrashEvent::kJobCommit)) return job_error_;
    }
    success_cleanup_dir_ = job_dir_ + "/extents";
    result->journal_records_appended = journal_->records_appended();
  }

  // Phase breakdown. shuffle_wait = reduce-side lifetime not spent busy:
  // from launch until the final task started, minus the fetch/merge work
  // actually done, plus any explicit re-fetch waits.
  result->map_phase_seconds =
      map_phase_done_ ? Seconds(map_phase_end_ - start) : 0;
  result->shuffle_merge_seconds = shuffle_merge_busy_;
  result->reduce_compute_seconds = reduce_compute_busy_;
  double wait = shuffle_wait_busy_;
  for (const ReduceShuffle& rs : reduces_) {
    const double lifetime = Seconds(rs.final_start - launch_time_);
    wait += std::max(0.0, lifetime - rs.drain_busy_seconds);
  }
  result->shuffle_wait_seconds = wait;
  const double busy = shuffle_merge_busy_ + reduce_compute_busy_;
  result->overlap_efficiency = busy > 0 ? overlap_busy_ / busy : 0;

  result->wall_seconds = Seconds(Clock::now() - start);
  return Status::OK();
}

}  // namespace

LocalJobRunner::LocalJobRunner(JobConf conf) : conf_(std::move(conf)) {}

Result<LocalJobResult> LocalJobRunner::Run(
    InputFormat* input_format, const MapperFactory& mapper_factory,
    const ReducerFactory& reducer_factory, OutputFormat* output_format,
    const PartitionerFactory& partitioner_factory,
    const ReducerFactory& combiner_factory) {
  MRMB_RETURN_IF_ERROR(conf_.Validate());
  MRMB_CHECK(input_format != nullptr);
  MRMB_CHECK(output_format != nullptr);

  std::vector<InputSplit> splits =
      input_format->GetSplits(conf_, conf_.num_maps);
  if (static_cast<int>(splits.size()) != conf_.num_maps) {
    return Status::Internal("input format returned wrong split count");
  }

  LocalJobResult result;
  std::string cleanup_dir;
  {
    PipelinedJob job(conf_, input_format, std::move(splits), mapper_factory,
                     reducer_factory, partitioner_factory, combiner_factory);
    MRMB_RETURN_IF_ERROR(job.Execute(output_format, &result));
    cleanup_dir = job.success_cleanup_dir();
  }
  if (!cleanup_dir.empty()) {
    // The job committed: its extents are dead weight now (resume replays
    // committed part files, never extents), but the journal and the output
    // directory stay, so resuming a completed job is a cheap no-op. The
    // store — and every extent handle — died with the PipelinedJob above.
    std::error_code ec;
    std::filesystem::remove_all(cleanup_dir, ec);
  }
  return result;
}

Result<LocalJobResult> LocalJobRunner::RunStandalone(const JobConf& conf) {
  LocalJobRunner runner(conf);
  NullInputFormat input;
  NullOutputFormat output;
  // With a built-in combiner selected, the final reducer aggregates the
  // same way (one (key, sum) pair per group): the job output — and its
  // fingerprint — is then invariant to how much combining happened at any
  // stage, which is what lets benchmarks pin correctness across the
  // combine ablation. Without one, the classic discarding reducer stands.
  ReducerFactory reducer =
      conf.combiner == CombinerKind::kSum
          ? ReducerFactory(
                [](int) { return std::make_unique<SummingReducer>(); })
          : ReducerFactory(
                [](int) { return std::make_unique<DiscardingReducer>(); });
  return runner.Run(
      &input,
      [&conf](int task_id) {
        return std::make_unique<GeneratingMapper>(conf, task_id);
      },
      reducer, &output, /*partitioner_factory=*/nullptr,
      MakeBuiltinCombiner(conf.combiner));
}

}  // namespace mrmb

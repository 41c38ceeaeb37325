// Durable spill storage engine: checksummed extent files, an ARC block
// cache, and scrub/repair — the disk under the functional shuffle.
//
// The paper's interesting shuffle regimes (MR-DL/MR-RL, 32–64 GB payloads)
// spill far past RAM, and a production MapReduce must survive the storage
// layer failing underneath it: Hadoop checksums every IFile block because
// local disks flip bits, tear writes, and run out of space as a matter of
// course. This module gives SpillSegment a durable backing with the same
// contract:
//
//   - An *extent* is one append-only file holding a sealed segment's bytes
//     as length-prefixed codec frames (block_codec.h's 17-byte checksummed
//     frame): `[fixed32 frame_len][frame]*`, blocks never straddling
//     partition boundaries. Extents are written to a temp file and sealed
//     by rename, so a crash never leaves a half-extent visible under the
//     final name; RecoverExtentFile truncates a crashed temp file back to
//     its last intact frame.
//   - Reads go block-at-a-time through an ARC block cache (adaptive T1/T2
//     recency/frequency split with B1/B2 ghost lists, byte-based capacity)
//     so hot merge runs stay resident while a scan can't wipe the cache.
//   - Every block is CRC-verified on read. A mismatch first attempts
//     single-bit repair (RepairCodecFrameSingleBitFlip) and writes the
//     healed frame back in place; the segment's partition-level CRCs —
//     carried redundantly in the extent index — confirm the repair. What
//     can't be repaired surfaces as kDataLoss for the caller's recovery
//     machinery (attempt retry or generation-tracked map re-execution),
//     never a crash.
//   - ENOSPC / EIO / short reads and writes are first-class recoverable
//     outcomes: failed extent writes leave no file behind and report
//     ResourceExhausted/IOError so spill admission can degrade to RAM
//     residency; short reads are transparently completed; read EIO is
//     retried a bounded number of times before kIOError.
//
// Thread safety: SpillStore and ArcBlockCache are thread-safe; a StoredSpill
// handle is immutable after Put and may be read concurrently. The store must
// outlive every handle it returned.

#ifndef MRMB_IO_SPILL_STORE_H_
#define MRMB_IO_SPILL_STORE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "io/block_codec.h"
#include "io/kv_buffer.h"

namespace mrmb {

class SpillStore;

// Fault-injection seams consulted at the store's file-operation boundaries.
// The base implementation injects nothing; mapred/fault_injector.h derives
// the deterministic LocalFaultPlan-driven version. Extent writes and reads
// run from concurrent task attempts, so implementations must be
// thread-safe.
class SpillIoHooks {
 public:
  virtual ~SpillIoHooks() = default;

  // Consulted before appending `len` bytes to an extent file; `store_bytes`
  // is the store-wide byte count already written. A non-OK return fails the
  // write with that status (ResourceExhausted models ENOSPC, IOError a
  // write-side EIO); the store then deletes the partial temp file.
  virtual Status BeforeExtentWrite(int64_t store_bytes, size_t len) {
    (void)store_bytes;
    (void)len;
    return Status::OK();
  }

  // Invoked on each sealed block frame before it is written; may mutate the
  // bytes (corrupt_block: the frame's stored CRC then describes bytes that
  // are no longer on disk, exactly like a decaying sector). `block` is the
  // frame's index within the extent.
  virtual void MutateBlockFrame(int task, int attempt, int64_t block,
                                std::string* frame) {
    (void)task;
    (void)attempt;
    (void)block;
    (void)frame;
  }

  // Bytes to silently drop from the end of the extent being sealed
  // (torn_write: a lost tail write that the page cache acknowledged but the
  // platter never saw). Clamped to [0, final_frame_bytes]; the length
  // prefix keeps its full value, so readers find the final frame short.
  virtual int64_t TornWriteBytes(int task, int attempt,
                                 int64_t final_frame_bytes) {
    (void)task;
    (void)attempt;
    (void)final_frame_bytes;
    return 0;
  }

  // True to deliver the next pread of `block` short (the read loop
  // completes it and counts short_reads). Keyed by the extent's owning
  // (task, attempt) so a given plan is schedule-independent.
  virtual bool InjectShortRead(int task, int attempt, int64_t block) {
    (void)task;
    (void)attempt;
    (void)block;
    return false;
  }

  // True to fail read attempt `retry` (0-based) of `block` with EIO. The
  // store retries a bounded number of times, each with a fresh draw, before
  // surfacing kIOError.
  virtual bool InjectReadError(int task, int attempt, int64_t block,
                               int retry) {
    (void)task;
    (void)attempt;
    (void)block;
    (void)retry;
    return false;
  }
};

struct SpillStoreOptions {
  // Parent directory for the store's extent directory; the store creates a
  // unique subdirectory beneath it and removes it on destruction. Empty
  // selects the system temp directory.
  std::string dir;
  // ARC block-cache capacity in decompressed-payload bytes; 0 bypasses the
  // cache entirely (every read decodes from disk).
  int64_t cache_bytes = 16ll << 20;
  // Raw segment bytes per block frame — the unit of checksum verification,
  // repair, and caching.
  int64_t block_bytes = 256ll << 10;
  // Codec for block payloads of raw partitions. Partitions that already
  // hold a codec frame (PartitionRange::raw_length >= 0) are always written
  // as stored frames, never compressed twice; kNone writes stored frames
  // for everything (integrity framing without compression).
  MapOutputCodec block_codec = MapOutputCodec::kLz4;
  // Verify (and repair) every block of each extent immediately after the
  // seal rename — write-time scrubbing. Unrepairable damage fails Put with
  // kDataLoss instead of waiting for a reader to trip over it.
  bool scrub_after_seal = false;
  // Serve reads from a shared read-only mmap of each extent instead of
  // pread. Repairs still go through pwrite (visible through the mapping).
  bool use_mmap = false;
  // Use `dir` itself as the extent directory instead of creating a unique
  // subdirectory beneath it. The caller owns the directory's naming and
  // lifetime. Requires a non-empty `dir`.
  bool exact_dir = false;
  // Durable mode: extents outlive the store. Handle destruction closes the
  // file without unlinking it, the store destructor leaves the directory in
  // place, and extent images are fsynced before the seal rename — the
  // contract the crash-safe job journal needs to re-adopt committed map
  // outputs after a process crash.
  bool durable = false;
};

struct SpillStoreStats {
  int64_t extents_written = 0;
  int64_t blocks_written = 0;
  int64_t bytes_written = 0;   // physical extent bytes (prefixes + frames)
  int64_t logical_bytes = 0;   // segment bytes the extents encode
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  int64_t blocks_repaired = 0;  // single-bit flips healed in place
  int64_t blocks_lost = 0;      // unrecoverable blocks (kDataLoss surfaced)
  int64_t short_reads = 0;      // partial preads transparently completed
  int64_t read_errors = 0;      // EIO preads, including successfully retried
  int64_t write_failures = 0;   // extent writes failed with ENOSPC/EIO
  int64_t scrubbed_blocks = 0;  // blocks verified by explicit scrub passes
};

// Byte-capacity Adaptive Replacement Cache over decoded block payloads.
// Classic ARC split: T1 holds blocks seen once (recency), T2 blocks seen
// again (frequency); B1/B2 remember recently evicted keys without their
// bytes and steer the adaptive target between the two sides. Exposed for
// direct unit testing; the store is the intended client.
class ArcBlockCache {
 public:
  explicit ArcBlockCache(int64_t capacity_bytes);

  // Returns the cached payload (promoting the block) or nullptr on miss.
  std::shared_ptr<const std::string> Get(uint64_t extent, int64_t block);
  // Inserts (or refreshes) a block, evicting per ARC to stay under
  // capacity. Payloads larger than the whole cache are not admitted.
  void Put(uint64_t extent, int64_t block,
           std::shared_ptr<const std::string> payload);
  // Drops every entry (resident and ghost) belonging to `extent`.
  void EraseExtent(uint64_t extent);

  int64_t hits() const;
  int64_t misses() const;
  int64_t evictions() const;  // resident entries demoted or dropped
  int64_t resident_bytes() const;
  // Current adaptive target for T1, in bytes (test introspection).
  int64_t target_t1_bytes() const;

 private:
  enum ListId { kT1, kT2, kB1, kB2 };
  struct Entry {
    ListId list = kT1;
    std::list<uint64_t>::iterator pos;
    std::shared_ptr<const std::string> payload;  // null for ghosts
    int64_t bytes = 0;
  };

  void Unlink(uint64_t key, Entry* entry);
  void LinkFront(uint64_t key, Entry* entry, ListId list);
  void EvictResident(bool prefer_t1);
  void ReplaceLocked(int64_t incoming_bytes, bool ghost_hit_in_b2);
  void TrimGhostsLocked();

  const int64_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Entry> entries_;
  std::list<uint64_t> lists_[4];  // MRU at front
  int64_t list_bytes_[4] = {0, 0, 0, 0};
  int64_t target_t1_ = 0;  // ARC's adaptive parameter p, in bytes
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
};

// One sealed, immutable extent file holding a spilled segment. Handles are
// created by SpillStore::Put; destroying the handle closes and unlinks the
// extent and drops its cached blocks. The owning store must outlive it.
class StoredSpill {
 public:
  // On-disk location of one block frame (test/scrub introspection).
  struct BlockRef {
    int partition = 0;
    int64_t file_offset = 0;  // of the frame itself, past its length prefix
    int64_t frame_len = 0;
    int64_t raw_len = 0;  // decoded payload bytes
  };

  ~StoredSpill();
  StoredSpill(const StoredSpill&) = delete;
  StoredSpill& operator=(const StoredSpill&) = delete;

  // The spilled segment's partition index, verbatim — offsets/lengths into
  // the logical segment, record counts, and the partition-level CRCs that
  // double as the repair path's redundant checksum.
  const std::vector<SpillSegment::PartitionRange>& partitions() const {
    return partitions_;
  }

  // Reads back exactly the bytes SpillSegment::PartitionData(partition)
  // held, decoding blocks through the store's cache. Every frame is
  // CRC-verified; single-bit damage is repaired in place (counted in
  // stats), anything else returns kDataLoss. With `verify_partition_crc`
  // the reassembled bytes are additionally checked against the sealed
  // partition CRC — the redundant end-to-end check that also confirms
  // repairs. kIOError reports a (possibly injected) persistent read error.
  Result<std::string> ReadPartition(int partition,
                                    bool verify_partition_crc) const;

  const std::string& path() const { return path_; }
  int64_t file_bytes() const { return file_bytes_; }
  int64_t logical_bytes() const { return logical_bytes_; }
  int owner_task() const { return task_; }
  int owner_attempt() const { return attempt_; }
  const std::vector<BlockRef>& blocks() const { return blocks_; }

 private:
  friend class SpillStore;
  StoredSpill() = default;

  SpillStore* store_ = nullptr;
  uint64_t extent_id_ = 0;
  std::string path_;
  int fd_ = -1;
  void* map_ = nullptr;  // non-null when the store mmaps extents
  int64_t file_bytes_ = 0;
  int64_t logical_bytes_ = 0;
  int task_ = 0;
  int attempt_ = 0;
  std::vector<SpillSegment::PartitionRange> partitions_;
  std::vector<BlockRef> blocks_;
};

struct ScrubReport {
  int64_t blocks = 0;
  int64_t repaired = 0;
  int64_t lost = 0;
};

class SpillStore {
 public:
  // Creates the store's extent directory. `hooks` may be null and must
  // outlive the store.
  static Result<std::unique_ptr<SpillStore>> Open(
      const SpillStoreOptions& options, SpillIoHooks* hooks = nullptr);
  ~SpillStore();
  SpillStore(const SpillStore&) = delete;
  SpillStore& operator=(const SpillStore&) = delete;

  // Writes `segment` (which must be sealed) as one new extent owned by
  // (task, attempt). ResourceExhausted/IOError mean no extent was created —
  // callers degrade to RAM residency; DataLoss means the post-seal scrub
  // found unrepairable damage (the extent is deleted).
  Result<std::shared_ptr<const StoredSpill>> Put(const SpillSegment& segment,
                                                 int task, int attempt);

  // Manifest of an extent a previous run sealed in this store's directory
  // (recorded in the job journal at map commit). Adopt() rebuilds a read
  // handle over it without rewriting a byte.
  struct AdoptSpec {
    std::string file_name;  // basename within the store directory
    int task = 0;
    int attempt = 0;
    int64_t file_bytes = 0;
    int64_t logical_bytes = 0;
    std::vector<SpillSegment::PartitionRange> partitions;
  };

  // Re-opens a durable extent written by a crashed predecessor: walks the
  // file's self-describing frames to rebuild the block index, checking every
  // frame boundary and per-partition byte count against the manifest.
  // Structural mismatch (truncation, size drift, bad frame header) returns
  // kDataLoss — the caller falls back to re-running the task. Payload CRCs
  // are still verified lazily on read, exactly as for a fresh Put.
  Result<std::shared_ptr<const StoredSpill>> Adopt(const AdoptSpec& spec);

  // Re-verifies every block of `spill` directly from disk, bypassing the
  // cache, repairing single-bit flips in place. Unrepairable blocks are
  // counted in the report (and stats) rather than failing the pass.
  Result<ScrubReport> Scrub(const StoredSpill& spill);

  SpillStoreStats stats() const;
  const std::string& dir() const { return dir_; }

 private:
  friend class StoredSpill;
  SpillStore(const SpillStoreOptions& options, SpillIoHooks* hooks,
             std::string dir);

  Result<std::string> BuildExtentImage(const SpillSegment& segment, int task,
                                       int attempt,
                                       std::vector<StoredSpill::BlockRef>* refs,
                                       int64_t* blocks_built);
  Status WriteExtentFile(const std::string& tmp_path,
                         const std::string& image);
  // Reads `ref`'s frame bytes from disk (short reads completed, injected
  // EIO retried), decodes and CRC-verifies it, attempting single-bit repair
  // with write-back on mismatch. Returns the decoded payload.
  Result<std::shared_ptr<const std::string>> LoadBlock(
      const StoredSpill& spill, int64_t block_index,
      bool* repaired = nullptr) const;
  Result<std::shared_ptr<const std::string>> GetBlock(
      const StoredSpill& spill, int64_t block_index) const;
  Status ReadFrameBytes(const StoredSpill& spill,
                        const StoredSpill::BlockRef& ref, int64_t block_index,
                        std::string* frame) const;
  void ReleaseExtent(StoredSpill* spill);

  const SpillStoreOptions options_;
  SpillIoHooks* const hooks_;  // may be null
  const std::string dir_;
  std::atomic<uint64_t> next_extent_{0};
  std::atomic<int64_t> bytes_written_{0};
  std::unique_ptr<ArcBlockCache> cache_;  // null when cache_bytes == 0
  mutable std::mutex stats_mu_;
  mutable SpillStoreStats stats_;  // read paths are const but count
};

// Crash recovery for an extent file that never reached its seal rename:
// scans the length-prefixed frames front to back, truncates the file after
// the last complete, CRC-valid frame, and returns how many frames survive.
// Used to reclaim a spill directory after a simulated (or real) crash.
Result<int64_t> RecoverExtentFile(const std::string& path);

}  // namespace mrmb

#endif  // MRMB_IO_SPILL_STORE_H_

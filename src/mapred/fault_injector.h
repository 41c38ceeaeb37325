// Deterministic fault injection for the functional (local) runner.
//
// The sim side has FaultPlan for node-level failure domains; this is its
// functional-path sibling. A LocalFaultPlan composes *scheduled* attempt
// faults (fail attempt N of map task M, flip a bit in a spill partition,
// stall an attempt past its watchdog deadline) with *probabilistic* hazards
// (per-attempt map/reduce failure probabilities). Every random decision is
// drawn from an RNG stream keyed by (job seed, hazard kind, task, attempt),
// so a given (plan, seed) pair reproduces the same faults regardless of
// thread count or scheduling — retries are deterministic, and so is the
// whole job.
//
// Spec syntax (';'-separated, CLI- and .suite-friendly):
//
//   fail_map:3@a=0            attempt 0 of map task 3 fails
//   fail_reduce:1@a=2         attempt 2 of reduce task 1 fails
//   corrupt_map:2@a=0,p=1     flip one bit in partition 1 of the output
//                             produced by attempt 0 of map task 2
//   delay_map:0@a=0,ms=500    stall attempt 0 of map task 0 for 500 ms
//   delay_reduce:4@a=1,ms=50  likewise for a reduce attempt
//   map_fail_prob:0.05        per-attempt map failure hazard
//   reduce_fail_prob:0.05     per-attempt reduce failure hazard
//
// I/O fault family (the spill storage engine's hazards; they only fire when
// the disk spill engine is on — see JobConf::spill_engine_enabled):
//
//   corrupt_block:2@a=0,b=1      flip one bit on disk in block 1 of every
//                                extent written by attempt 0 of map task 2
//   corrupt_block:2@a=0,b=1,n=3  same, flipping 3 bits (beyond single-bit
//                                repair: exercises the kDataLoss path)
//   torn_write:1@a=0             silently drop the tail of the final block
//                                of each extent that attempt writes (a lost
//                                write surviving the seal rename)
//   short_read:0.1               probability a block pread returns short
//                                (the read loop completes it)
//   eio_prob:0.05                probability a block pread fails with EIO
//                                (bounded retries, then kIOError)
//   enospc_after_bytes:1048576   extent writes fail with ENOSPC once the
//                                store has written this many bytes
//
// Transport fault family (only fires when the real-socket shuffle is on —
// JobConf::shuffle_transport = tcp; the inproc data plane has no
// connections to drop):
//
//   drop_conn:2@a=0              the server closes the connection without
//                                replying on the 1st fetch of map 2's
//                                output (a = per-map fetch sequence, counted
//                                across all reducers); the client retries
//   trunc_frame:1@a=3            the server sends the response header and
//                                half the body of map 1's 4th fetch, then
//                                hangs up (a torn frame mid-stream)
//   slow_peer:0.1                probability any given fetch is delayed by
//                                a fixed straggler pause on the client side
//
// drop_conn / trunc_frame fire exactly once (the retry of the same fetch
// draws a new sequence number); which reducer's fetch trips them depends on
// scheduling, but the recovery outcome — and the job's output fingerprint —
// does not.
//
// Crash fault family (only meaningful with the job journal on — see
// JobConf::journal_enabled; a crash point without a journal would just
// lose the job):
//
//   crash_at:job_start@0         simulate a process crash immediately after
//                                the journal's run-start record lands
//   crash_at:map_commit@2        crash right after the 3rd map-commit
//                                record (0-based global occurrence count)
//   crash_at:reduce_commit@0     likewise for the 1st reduce commit
//   crash_at:job_commit@0        crash after the job-commit record — the
//                                job is complete; resume must be a no-op
//
// A crash point tears the runner down in-process: in-flight attempts are
// drained, no cleanup runs, and Run returns kAborted with the durable
// journal/extents/part files left exactly as a real crash would.

#ifndef MRMB_MAPRED_FAULT_INJECTOR_H_
#define MRMB_MAPRED_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "io/kv_buffer.h"
#include "io/spill_store.h"

namespace mrmb {

enum class LocalFaultKind {
  kFailMap,      // attempt returns an injected Internal error
  kFailReduce,
  kCorruptMap,   // single-bit flip in one sealed output partition
  kDelayMap,     // cooperative stall (a watchdog cancellation point)
  kDelayReduce,
  kCorruptBlock, // flip bits in one on-disk extent block (spill engine)
  kTornWrite,    // drop the tail of each extent's final block (spill engine)
  kDropConn,     // server drops the connection on one fetch (tcp transport)
  kTruncFrame,   // server sends a truncated body then hangs up (tcp)
};

const char* LocalFaultKindName(LocalFaultKind kind);

// Journal events a crash_at point can anchor to; the crash fires right
// after the matching journal record is durably appended, so the record is
// always on disk when the process "dies".
enum class CrashEvent {
  kJobStart,
  kMapCommit,
  kReduceCommit,
  kJobCommit,
};

const char* CrashEventName(CrashEvent event);
Result<CrashEvent> CrashEventByName(const std::string& name);

struct CrashPoint {
  CrashEvent event = CrashEvent::kJobStart;
  // 0-based global occurrence of the event: crash after the (n+1)-th
  // matching journal append. Occurrences are counted under the runner's
  // lock, so a given plan crashes at the same journal prefix length
  // regardless of thread scheduling.
  int64_t occurrence = 0;

  bool operator==(const CrashPoint&) const = default;
};

struct LocalFaultEvent {
  LocalFaultKind kind = LocalFaultKind::kFailMap;
  int task = 0;
  int attempt = 0;
  int partition = 0;    // kCorruptMap only
  int64_t delay_ms = 0; // kDelayMap / kDelayReduce only
  int64_t block = 0;    // kCorruptBlock only: frame index within the extent
  int bits = 1;         // kCorruptBlock only: flips per matching block

  bool operator==(const LocalFaultEvent&) const = default;
};

struct LocalFaultPlan {
  std::vector<LocalFaultEvent> events;
  // Per-attempt hazards, drawn from dedicated per-attempt RNG streams.
  double map_failure_prob = 0;
  double reduce_failure_prob = 0;
  // Spill-engine I/O hazards (see the syntax block above).
  double short_read_prob = 0;
  double eio_prob = 0;
  int64_t enospc_after_bytes = -1;  // -1 = disk never fills
  // Tcp-transport hazard: probability a shuffle fetch is delayed client-side.
  double slow_peer_prob = 0;
  // Simulated process crashes, anchored to journal events (see above).
  std::vector<CrashPoint> crash_points;

  bool empty() const {
    return events.empty() && map_failure_prob == 0 &&
           reduce_failure_prob == 0 && short_read_prob == 0 &&
           eio_prob == 0 && enospc_after_bytes < 0 && slow_peer_prob == 0 &&
           crash_points.empty();
  }

  // True if a crash point matches the (0-based) `occurrence`-th append of
  // `event`'s journal record.
  bool CrashesAt(CrashEvent event, int64_t occurrence) const;

  Status Validate() const;

  // Canonical spec string; Parse(ToString()) round-trips.
  std::string ToString() const;

  // Parses the ';'-separated spec syntax above; an empty spec yields an
  // empty plan.
  static Result<LocalFaultPlan> Parse(const std::string& spec);
};

// Interprets a plan for one job run. Stateless after construction and safe
// to call from concurrent task attempts.
class LocalFaultInjector {
 public:
  LocalFaultInjector(LocalFaultPlan plan, uint64_t seed);

  // Scheduled or hazard-drawn failure of this attempt.
  bool ShouldFailMap(int task, int attempt) const;
  bool ShouldFailReduce(int task, int attempt) const;

  // Injected stall before the attempt does any work (0 = none).
  int64_t MapDelayMs(int task, int attempt) const;
  int64_t ReduceDelayMs(int task, int attempt) const;

  // Applies any corrupt_map event matching (task, attempt): flips one
  // deterministically-chosen bit inside the named partition range of the
  // sealed `segment` (of a sliced segment, in the buffer holding that byte
  // of the partition's merge-order bytes). Returns true if a bit was
  // flipped (an empty partition cannot be corrupted).
  bool MaybeCorruptMapOutput(int task, int attempt,
                             SpillSegment* segment) const;

  // Transport fault family (tcp shuffle only). `fetch_seq` is the per-map
  // fetch sequence number assigned by the shuffle server; scheduled
  // drop_conn / trunc_frame events fire when it equals the event's attempt.
  bool DropConnAt(int map, int64_t fetch_seq) const;
  bool TruncFrameAt(int map, int64_t fetch_seq) const;
  // Client-side straggler pause for this fetch (0 = none), drawn from the
  // slow_peer hazard stream keyed by (map, fetch_seq).
  int64_t SlowPeerDelayMs(int map, int64_t fetch_seq) const;

 private:
  bool HazardFires(uint64_t stream, double prob, int task, int attempt) const;

  LocalFaultPlan plan_;
  uint64_t seed_;
};

// The plan's I/O fault family as SpillIoHooks, for plugging straight into
// SpillStore::Open. Every decision is drawn from an RNG stream keyed by
// (seed, hazard kind, owning task/attempt, block[, retry]) — like the
// injector, reproducible for a given (plan, seed) regardless of thread
// scheduling. Stateless after construction and safe for concurrent reads
// and writes.
class LocalSpillIoHooks final : public SpillIoHooks {
 public:
  LocalSpillIoHooks(LocalFaultPlan plan, uint64_t seed);

  Status BeforeExtentWrite(int64_t store_bytes, size_t len) override;
  void MutateBlockFrame(int task, int attempt, int64_t block,
                        std::string* frame) override;
  int64_t TornWriteBytes(int task, int attempt,
                         int64_t final_frame_bytes) override;
  bool InjectShortRead(int task, int attempt, int64_t block) override;
  bool InjectReadError(int task, int attempt, int64_t block,
                       int retry) override;

 private:
  LocalFaultPlan plan_;
  uint64_t seed_;
};

}  // namespace mrmb

#endif  // MRMB_MAPRED_FAULT_INJECTOR_H_

// Merging spill segments into a task's final map output.
//
// When a map task spills more than once, Hadoop merges the sorted spills
// into a single partition-indexed file that the shuffle then serves.
// Merges never materialise a merged run of their own: MergeFramedRuns
// returns slices of its inputs' bytes. A map output keeps those slices
// (MergeSpillsToSlices), so each of its bytes is copied once, when its
// spill is gathered; a merge that runs the combiner, and MergeSegments,
// append the combiner's output or the slices into a contiguous segment.

#ifndef MRMB_MAPRED_MAP_OUTPUT_H_
#define MRMB_MAPRED_MAP_OUTPUT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "io/block_codec.h"
#include "io/comparator.h"
#include "io/kv_buffer.h"
#include "mapred/api.h"

namespace mrmb {

// One sorted run of framed records, held as one or more slices (the run is
// their concatenation; each slice holds whole records) and annotated with
// where it came from so a malformed stream can be blamed on its producer.
// `source_map` is the map task id for raw fetched partitions and -1 for
// runs the merger itself produced (those bytes were already validated when
// they were merged).
struct FramedRun {
  std::vector<std::string_view> slices;
  int source_map = -1;
};

// Output of MergeFramedRuns: a sorted run held as slices of the bytes its
// inputs already hold — no record is copied.
struct SlicedRun {
  std::vector<std::string_view> slices;
  // Per slice, the index into the merge's `runs` of the run it lies in.
  std::vector<size_t> inputs;
  int64_t records = 0;
  int64_t bytes = 0;
};

// K-way merges individually-sorted framed runs into one run. Key order is
// `comparator` order; equal keys keep the input order of `runs`, so callers
// that pass runs in ascending map-id order preserve the global map-order
// tie-break of a single flat merge. The result's slices point into the
// inputs' bytes, which must outlive it: each slice is a stretch of records
// that one input holds contiguously and the merge emits back to back, so
// inputs whose keys do not interleave come back as one slice each. On
// malformed input returns DataLoss and, when `corrupt_sources` is non-null,
// appends the source_map of every input stream that failed mid-merge.
Result<SlicedRun> MergeFramedRuns(const std::vector<FramedRun>& runs,
                                  const RawComparator* comparator,
                                  std::vector<int>* corrupt_sources = nullptr);

// Appends the bytes of `slices` to `out`.
void AppendSlices(const std::vector<std::string_view>& slices,
                  std::string* out);

// What one MergeAndAppend call did.
struct MergeAppendStats {
  int64_t merged_records = 0;  // records out of the merge
  int64_t merged_bytes = 0;    // ... and their framed bytes
  int64_t records = 0;         // records appended
  int64_t bytes = 0;           // ... and their framed bytes
  double combine_seconds = 0;  // wall time of the combine pass
};

// The merge-combine-append step of every merge that builds a segment or a
// combined run: merges `runs` (MergeFramedRuns) and appends to `out` the
// merged records' bytes or, when `combiner` is non-null, the combiner's
// output over their key groups (CombineSortedRun; `conf` and `task_id` feed
// its ReduceContext). Merge failures are MergeFramedRuns'. A combine
// failure — malformed framing in bytes the merge just validated, so a
// framework bug — returns Internal. On error `out` may hold a partial
// append.
Result<MergeAppendStats> MergeAndAppend(
    const std::vector<FramedRun>& runs, const RawComparator* comparator,
    Reducer* combiner, const JobConf& conf, int task_id, std::string* out,
    std::vector<int>* corrupt_sources = nullptr);

// Merges sorted spills (all with the same partition count) into a map output
// that owns their bytes instead of copying them: the spills' buffers move
// into the result, and each of its partitions is the merge-ordered slices
// MergeFramedRuns returns over the spills' runs of that partition. Nothing
// is verified or sealed; SealSegment then streams each partition's CRC over
// its slices in merge order, so the bytes, ranges and CRCs read through
// PartitionSlices equal those of MergeSegments' contiguous segment over the
// same spills. Each spill is contiguous or holds at most one slice per
// partition (a spill read back from the spill store, one buffer per
// partition). Malformed framing returns DataLoss.
Result<SpillSegment> MergeSpillsToSlices(std::vector<SpillSegment> spills,
                                         const RawComparator* comparator);

// Merges sorted spill segments (all with the same partition count) into one
// contiguous, sorted, sealed segment. Key order within each partition is
// decided by `comparator`. When `verify_checksums` is set, every input
// partition range is CRC-verified before it is read (shuffle-read
// semantics); a mismatch returns DataLoss and no output is produced. A
// stream that turns out to be malformed mid-merge also returns DataLoss.
Result<SpillSegment> MergeSegments(
    const std::vector<const SpillSegment*>& segments,
    const RawComparator* comparator, bool verify_checksums = true);

// Re-frames every partition of a segment through `codec` (io/block_codec.h):
// each partition range becomes one self-describing codec frame of the
// original framed records, PartitionRange::raw_length keeps the logical
// size, and the re-sealed CRCs cover the compressed bytes — shuffle-read
// verification then hashes only what travelled the wire. `codec` must not
// be kNone.
Result<SpillSegment> CompressSegment(MapOutputCodec codec,
                                     const SpillSegment& segment);

// Runs `combiner` over every key group of one sorted framed run, given as
// slices, and appends the combined, still-sorted records to `out`; returns
// how many it appended. This is the combine kernel of MergeAndAppend: the
// merge-time combine of multi-spill map output, of reduce-side fold output,
// and of the in-node combine of co-located map segments
// (mapred/node_combiner.h). The combiner must emit keys equal to the group
// key (the usual sum/count combiners do), or the output order is
// unspecified. Malformed framing in `run` returns DataLoss.
Result<int64_t> CombineSortedRun(const std::vector<std::string_view>& run,
                                 const RawComparator* comparator,
                                 Reducer* combiner, const JobConf& conf,
                                 int task_id, std::string* out);

// Hadoop's per-spill combine pass: runs `combiner` over every key group of
// every partition of a sorted KvBuffer, reading the records straight out of
// its arena, and returns the combined, still-sorted segment, sealed unless
// `seal` is false. No uncombined spill is gathered.
SpillSegment CombineSegment(const KvBuffer& buffer,
                            const RawComparator* comparator,
                            Reducer* combiner, const JobConf& conf,
                            int task_id, bool seal = true);

}  // namespace mrmb

#endif  // MRMB_MAPRED_MAP_OUTPUT_H_

// Map-side collect buffer and spill segments.
//
// KvBuffer plays the role of Hadoop's MapOutputBuffer (io.sort.mb): map
// output records are copied in IFile framing (vint key length, vint value
// length, key bytes, value bytes) into a fixed arena of `capacity` bytes,
// allocated once and never grown, with a side index of record references.
// The index is *bucketed by partition at append time* (the partition is
// already known in Append), so sorting never compares partition ids and
// ToSpill is a contiguous per-partition gather. Each reference caches an
// 8-byte normalized key prefix (io/key_prefix.h). Sorting a partition is a
// stable LSD radix sort on that prefix, one pass per byte in which the
// partition's prefixes differ; where the prefix does not decide key order
// (BytesWritable, Text), each run of equal prefixes is then ordered by the
// RawComparator. Partitions sort independently: Sort(pool) fans the
// per-partition sorts out over a dedicated thread pool with byte-identical
// results for any thread count.

#ifndef MRMB_IO_KV_BUFFER_H_
#define MRMB_IO_KV_BUFFER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "io/comparator.h"
#include "io/merge.h"
#include "io/writable.h"

namespace mrmb {

// An immutable sorted run of framed records with a per-partition index,
// held in one of two forms that PartitionSlices reads alike:
//   - contiguous: every partition range is a stretch of `data` (a spill, a
//     combiner's output, a codec-framed output);
//   - sliced: a multi-spill map output that owns its spills' bytes in
//     `buffers` and leaves `data` empty; partition p is the concatenation of
//     `slices[p]`, stretches of those buffers in merge order
//     (mapred/map_output.h, MergeSpillsToSlices).
struct SpillSegment {
  struct PartitionRange {
    // Byte offset into `data`; in the sliced form, into the concatenation
    // of every partition's bytes, which is where a contiguous segment with
    // the same bytes would hold the range.
    int64_t offset = 0;
    int64_t length = 0;   // bytes as stored (on-wire when compressed)
    int64_t records = 0;  // record count
    // Decompressed (logical) size of the range when the spill path ran a
    // codec over it (CompressSegment, map_output_codec != none); -1 when
    // the range holds raw framed records.
    int64_t raw_length = -1;
    // CRC32C of the range's bytes (in slice order), sealed at spill/merge
    // time (Hadoop's IFile checksum) and verified at shuffle-read time. For
    // compressed ranges this covers the compressed bytes — verification
    // never pays for more than what travelled the wire.
    uint32_t crc = 0;

    int64_t raw_bytes() const { return raw_length >= 0 ? raw_length : length; }
  };

  // A stretch of one of `buffers`. An index, not a pointer, so a segment
  // stays safe to copy and move (a short buffer's bytes live inside it).
  struct Slice {
    size_t buffer = 0;
    size_t offset = 0;
    size_t length = 0;
  };

  std::string data;
  std::vector<PartitionRange> partitions;
  // True once every partition crc has been computed (see io/checksum.h).
  bool sealed = false;
  // The sliced form; both empty in the contiguous form.
  std::vector<std::string> buffers;
  std::vector<std::vector<Slice>> slices;  // per partition

  bool sliced() const { return !slices.empty(); }
  int64_t total_bytes() const;
  // Slices over all partitions; 0 in the contiguous form.
  size_t slice_count() const;
  int64_t total_records() const {
    int64_t n = 0;
    for (const PartitionRange& p : partitions) n += p.records;
    return n;
  }
  // The framed bytes destined for one partition. Contiguous form only.
  std::string_view PartitionData(int partition) const;
  // The same bytes as views in order: one per slice, or the one stretch of
  // `data`. Valid while the segment is neither modified nor moved.
  std::vector<std::string_view> PartitionSlices(int partition) const;
  // The same bytes as one view: into `data`, or gathered into `*scratch`.
  // For consumers that need contiguous input (a codec, an extent image).
  std::string_view PartitionBytes(int partition, std::string* scratch) const;
  // Turns a sliced segment into the contiguous one with the same bytes and
  // ranges (CRCs included) and frees its buffers. No-op when contiguous.
  void Gather();
};

class KvBuffer {
 public:
  // `capacity_bytes` bounds the arena like io.sort.mb; Append returns false
  // once a record would overflow it (caller then spills and Clear()s).
  KvBuffer(DataType key_type, int num_partitions, size_t capacity_bytes);

  KvBuffer(const KvBuffer&) = delete;
  KvBuffer& operator=(const KvBuffer&) = delete;

  // Appends one record with already-serialized key and value bytes.
  // Returns false (without appending) if the framed record would exceed the
  // remaining capacity — including a record larger than the whole buffer,
  // which still fails on an empty buffer (callers detect that case with
  // Fits() and surface ResourceExhausted instead of spilling forever).
  bool Append(int partition, std::string_view key, std::string_view value);

  // True if a record with these payloads could ever fit an empty buffer.
  bool Fits(std::string_view key, std::string_view value) const;

  // Sorts each partition's records by raw key order. Stable, so equal keys
  // keep arrival order within their partition (Hadoop's IndexedSorter does
  // not guarantee this, but determinism helps our tests). Equivalent to
  // Sort(nullptr).
  void Sort();

  // Same, but fans the independent per-partition sorts out over `pool`
  // (nullptr or a single-thread pool sorts inline). The pool must be
  // dedicated to this call: Sort waits for the whole pool to drain. The
  // sorted order — and therefore every spilled byte — is identical for any
  // thread count.
  void Sort(ThreadPool* pool);

  // Emits the sorted records as a spill segment, sealed unless `seal` is
  // false (a spill that stays resident is never verified, so its CRC pass
  // would be wasted). Requires Sort() first.
  SpillSegment ToSpill(bool seal = true) const;

  class SortedStream;
  // Streams one partition's records in sorted order straight out of the
  // arena. Requires Sort() first; the stream and its views stay valid until
  // the next Append or Clear.
  SortedStream SortedPartition(int partition) const;

  void Clear();

  size_t bytes_used() const { return used_; }
  size_t capacity() const { return capacity_; }
  int64_t records() const { return num_records_; }
  int num_partitions() const { return num_partitions_; }
  bool sorted() const { return sorted_; }

 private:
  struct RecordRef {
    uint64_t key_prefix;    // normalized prefix (io/key_prefix.h)
    uint32_t frame_offset;  // start of framing header in arena
    uint32_t key_offset;    // start of key bytes
    uint32_t key_len;
    uint32_t value_len;
  };

  std::string_view KeyView(const RecordRef& ref) const {
    return std::string_view(arena_.get() + ref.key_offset, ref.key_len);
  }
  std::string_view ValueView(const RecordRef& ref) const {
    return std::string_view(arena_.get() + ref.key_offset + ref.key_len,
                            ref.value_len);
  }
  void SortBucket(std::vector<RecordRef>* bucket) const;

  DataType key_type_;
  const RawComparator* comparator_;
  bool prefix_decisive_;
  int num_partitions_;
  size_t capacity_;
  std::unique_ptr<char[]> arena_;  // `capacity_` bytes, `used_` filled
  size_t used_ = 0;
  std::vector<std::vector<RecordRef>> buckets_;  // one per partition
  int64_t num_records_ = 0;
  bool sorted_ = false;
};

// One sorted partition of a KvBuffer as a RecordStream. Its views point
// into the buffer's arena, so they stay valid across Next().
class KvBuffer::SortedStream final : public RecordStream {
 public:
  bool Valid() const override { return next_ != end_; }
  std::string_view key() const override { return buffer_->KeyView(*next_); }
  std::string_view value() const override {
    return buffer_->ValueView(*next_);
  }
  void Next() override { ++next_; }
  bool stable_views() const override { return true; }

 private:
  friend class KvBuffer;
  SortedStream(const KvBuffer* buffer, const RecordRef* begin,
               const RecordRef* end)
      : buffer_(buffer), next_(begin), end_(end) {}

  const KvBuffer* buffer_;
  const RecordRef* next_;
  const RecordRef* end_;
};

}  // namespace mrmb

#endif  // MRMB_IO_KV_BUFFER_H_

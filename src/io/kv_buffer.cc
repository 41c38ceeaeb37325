#include "io/kv_buffer.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "common/logging.h"
#include "io/byte_buffer.h"
#include "io/checksum.h"
#include "io/key_prefix.h"

namespace mrmb {

int64_t SpillSegment::total_bytes() const {
  if (!sliced()) return static_cast<int64_t>(data.size());
  int64_t n = 0;
  for (const PartitionRange& p : partitions) n += p.length;
  return n;
}

size_t SpillSegment::slice_count() const {
  size_t n = 0;
  for (const std::vector<Slice>& partition : slices) n += partition.size();
  return n;
}

std::string_view SpillSegment::PartitionData(int partition) const {
  MRMB_CHECK(!sliced()) << "PartitionData of a sliced segment";
  MRMB_CHECK_GE(partition, 0);
  MRMB_CHECK_LT(static_cast<size_t>(partition), partitions.size());
  const PartitionRange& range = partitions[static_cast<size_t>(partition)];
  return std::string_view(data).substr(static_cast<size_t>(range.offset),
                                       static_cast<size_t>(range.length));
}

std::vector<std::string_view> SpillSegment::PartitionSlices(
    int partition) const {
  if (!sliced()) return {PartitionData(partition)};
  MRMB_CHECK_GE(partition, 0);
  MRMB_CHECK_LT(static_cast<size_t>(partition), slices.size());
  std::vector<std::string_view> views;
  views.reserve(slices[static_cast<size_t>(partition)].size());
  for (const Slice& slice : slices[static_cast<size_t>(partition)]) {
    views.push_back(std::string_view(buffers[slice.buffer])
                        .substr(slice.offset, slice.length));
  }
  return views;
}

std::string_view SpillSegment::PartitionBytes(int partition,
                                              std::string* scratch) const {
  if (!sliced()) return PartitionData(partition);
  scratch->clear();
  for (const std::string_view slice : PartitionSlices(partition)) {
    scratch->append(slice);
  }
  return *scratch;
}

void SpillSegment::Gather() {
  if (!sliced()) return;
  std::string gathered;
  gathered.reserve(static_cast<size_t>(total_bytes()));
  for (size_t p = 0; p < partitions.size(); ++p) {
    // A sliced range's offset already is its offset in the concatenation.
    MRMB_CHECK_EQ(partitions[p].offset, static_cast<int64_t>(gathered.size()));
    for (const Slice& slice : slices[p]) {
      gathered.append(buffers[slice.buffer], slice.offset, slice.length);
    }
  }
  data = std::move(gathered);
  buffers = {};
  slices = {};
}

namespace {

size_t FramedLength(std::string_view key, std::string_view value) {
  return VarintLength(static_cast<int64_t>(key.size())) +
         VarintLength(static_cast<int64_t>(value.size())) + key.size() +
         value.size();
}

// Stable LSD radix sort of `refs[0..n)` by key_prefix, one counting pass
// per byte, least significant first. Bytes in which every prefix agrees
// cannot reorder anything, so they get no pass: the generator's keys, which
// differ only in their low bytes, sort in one or two passes.
template <typename Ref>
void RadixSortByPrefix(Ref* refs, size_t n) {
  uint64_t differ = 0;
  for (size_t i = 1; i < n; ++i) {
    differ |= refs[i].key_prefix ^ refs[0].key_prefix;
  }
  int shifts[8];
  int passes = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    if (((differ >> shift) & 0xff) != 0) shifts[passes++] = shift;
  }
  if (passes == 0) return;

  // One read of the input histograms every pass's byte.
  size_t counts[8][256] = {};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t prefix = refs[i].key_prefix;
    for (int pass = 0; pass < passes; ++pass) {
      ++counts[pass][(prefix >> shifts[pass]) & 0xff];
    }
  }
  const std::unique_ptr<Ref[]> scratch =
      std::make_unique_for_overwrite<Ref[]>(n);
  Ref* from = refs;
  Ref* to = scratch.get();
  for (int pass = 0; pass < passes; ++pass) {
    size_t* next = counts[pass];
    size_t offset = 0;
    for (int digit = 0; digit < 256; ++digit) {
      const size_t count = next[digit];
      next[digit] = offset;
      offset += count;
    }
    const int shift = shifts[pass];
    for (size_t i = 0; i < n; ++i) {
      to[next[(from[i].key_prefix >> shift) & 0xff]++] = from[i];
    }
    std::swap(from, to);
  }
  if (from != refs) std::copy(from, from + n, refs);
}

}  // namespace

KvBuffer::KvBuffer(DataType key_type, int num_partitions,
                   size_t capacity_bytes)
    : key_type_(key_type),
      comparator_(ComparatorFor(key_type)),
      prefix_decisive_(PrefixIsDecisive(key_type)),
      num_partitions_(num_partitions),
      capacity_(capacity_bytes) {
  MRMB_CHECK_GT(num_partitions_, 0);
  MRMB_CHECK_GT(capacity_, 0u);
  // Uninitialised: Append writes every byte before anything reads it, and
  // pages the buffer never fills are never touched.
  arena_ = std::make_unique_for_overwrite<char[]>(capacity_);
  buckets_.resize(static_cast<size_t>(num_partitions_));
}

bool KvBuffer::Append(int partition, std::string_view key,
                      std::string_view value) {
  MRMB_CHECK_GE(partition, 0);
  MRMB_CHECK_LT(partition, num_partitions_);
  const size_t frame = FramedLength(key, value);
  if (frame > capacity_ - used_) return false;

  RecordRef ref;
  ref.key_prefix = NormalizedKeyPrefix(key_type_, key);
  ref.frame_offset = static_cast<uint32_t>(used_);
  char* out = arena_.get() + used_;
  out = EncodeVarint64(static_cast<int64_t>(key.size()), out);
  out = EncodeVarint64(static_cast<int64_t>(value.size()), out);
  ref.key_offset = static_cast<uint32_t>(out - arena_.get());
  ref.key_len = static_cast<uint32_t>(key.size());
  ref.value_len = static_cast<uint32_t>(value.size());
  std::copy(value.begin(), value.end(),
            std::copy(key.begin(), key.end(), out));
  used_ += frame;
  buckets_[static_cast<size_t>(partition)].push_back(ref);
  ++num_records_;
  sorted_ = false;
  return true;
}

bool KvBuffer::Fits(std::string_view key, std::string_view value) const {
  return FramedLength(key, value) <= capacity_;
}

void KvBuffer::SortBucket(std::vector<RecordRef>* bucket) const {
  if (bucket->size() < 2) return;
  RadixSortByPrefix(bucket->data(), bucket->size());
  if (prefix_decisive_) return;
  // The prefix ordered everything but runs of equal prefixes; order each
  // run by the full key. A stable sort of the run keeps arrival order among
  // equal keys, so the result is the permutation a stable comparison sort
  // on (prefix, key) gives.
  const auto less = [this](const RecordRef& a, const RecordRef& b) {
    return comparator_->Compare(KeyView(a), KeyView(b)) < 0;
  };
  RecordRef* const end = bucket->data() + bucket->size();
  for (RecordRef* run = bucket->data(); run != end;) {
    RecordRef* run_end = run + 1;
    while (run_end != end && run_end->key_prefix == run->key_prefix) {
      ++run_end;
    }
    if (run_end - run > 1 && !std::is_sorted(run, run_end, less)) {
      std::stable_sort(run, run_end, less);
    }
    run = run_end;
  }
}

void KvBuffer::Sort() { Sort(nullptr); }

void KvBuffer::Sort(ThreadPool* pool) {
  if (pool == nullptr || pool->num_threads() <= 1) {
    for (std::vector<RecordRef>& bucket : buckets_) SortBucket(&bucket);
  } else {
    for (std::vector<RecordRef>& bucket : buckets_) {
      if (bucket.size() < 2) continue;
      pool->Submit([this, b = &bucket] { SortBucket(b); });
    }
    pool->Wait();
  }
  sorted_ = true;
}

SpillSegment KvBuffer::ToSpill(bool seal) const {
  MRMB_CHECK(sorted_) << "ToSpill requires Sort()";
  SpillSegment spill;
  spill.data.resize(used_);
  spill.partitions.resize(static_cast<size_t>(num_partitions_));
  char* const begin = spill.data.data();
  char* out = begin;
  for (size_t p = 0; p < buckets_.size(); ++p) {
    SpillSegment::PartitionRange& range = spill.partitions[p];
    range.offset = out - begin;
    for (const RecordRef& ref : buckets_[p]) {
      const size_t frame_len = (ref.key_offset - ref.frame_offset) +
                               ref.key_len + ref.value_len;
      std::memcpy(out, arena_.get() + ref.frame_offset, frame_len);
      out += frame_len;
    }
    range.length = (out - begin) - range.offset;
    range.records = static_cast<int64_t>(buckets_[p].size());
  }
  if (seal) SealSegment(&spill);
  return spill;
}

KvBuffer::SortedStream KvBuffer::SortedPartition(int partition) const {
  MRMB_CHECK(sorted_) << "SortedPartition requires Sort()";
  MRMB_CHECK_GE(partition, 0);
  MRMB_CHECK_LT(partition, num_partitions_);
  const std::vector<RecordRef>& bucket =
      buckets_[static_cast<size_t>(partition)];
  return SortedStream(this, bucket.data(), bucket.data() + bucket.size());
}

void KvBuffer::Clear() {
  used_ = 0;
  for (std::vector<RecordRef>& bucket : buckets_) bucket.clear();
  num_records_ = 0;
  sorted_ = false;
}

}  // namespace mrmb

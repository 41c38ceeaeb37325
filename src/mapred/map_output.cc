#include "mapred/map_output.h"

#include <chrono>
#include <memory>

#include "common/logging.h"
#include "common/strings.h"
#include "io/byte_buffer.h"
#include "io/checksum.h"
#include "io/merge.h"

namespace mrmb {

Result<SlicedRun> MergeFramedRuns(const std::vector<FramedRun>& runs,
                                  const RawComparator* comparator,
                                  std::vector<int>* corrupt_sources) {
  std::vector<std::unique_ptr<RecordStream>> inputs;
  // Raw pointers: MergeIterator takes ownership, but each reader still
  // reports its record's framed bytes and, on failure, its own status (to
  // blame the right producer).
  std::vector<SegmentReader*> readers;
  inputs.reserve(runs.size());
  readers.reserve(runs.size());
  for (const FramedRun& run : runs) {
    // Fold inputs crossed the shuffle: validate key framing so a bit flip
    // surfaces as this run's DataLoss instead of feeding the comparator
    // garbage.
    auto reader =
        std::make_unique<SegmentReader>(run.slices, comparator->type());
    readers.push_back(reader.get());
    inputs.push_back(std::move(reader));
  }

  SlicedRun out;
  MergeIterator merged(std::move(inputs), comparator);
  size_t last_input = runs.size();
  for (; merged.Valid(); merged.Next()) {
    const size_t input = merged.current_input();
    const std::string_view record = readers[input]->framed();
    // The winner continues the current slice when it comes from the same
    // input and starts where that slice ends.
    if (input == last_input &&
        out.slices.back().data() + out.slices.back().size() ==
            record.data()) {
      out.slices.back() = std::string_view(
          out.slices.back().data(), out.slices.back().size() + record.size());
    } else {
      out.slices.push_back(record);
      out.inputs.push_back(input);
      last_input = input;
    }
    out.records += 1;
    out.bytes += static_cast<int64_t>(record.size());
  }
  Status status = merged.status();
  if (!status.ok()) {
    if (corrupt_sources != nullptr) {
      for (size_t i = 0; i < readers.size(); ++i) {
        if (!readers[i]->status().ok()) {
          corrupt_sources->push_back(runs[i].source_map);
        }
      }
    }
    return status;
  }
  return out;
}

void AppendSlices(const std::vector<std::string_view>& slices,
                  std::string* out) {
  for (const std::string_view slice : slices) out->append(slice);
}

Result<MergeAppendStats> MergeAndAppend(
    const std::vector<FramedRun>& runs, const RawComparator* comparator,
    Reducer* combiner, const JobConf& conf, int task_id, std::string* out,
    std::vector<int>* corrupt_sources) {
  MRMB_ASSIGN_OR_RETURN(SlicedRun merged,
                        MergeFramedRuns(runs, comparator, corrupt_sources));
  MergeAppendStats stats;
  stats.merged_records = merged.records;
  stats.merged_bytes = merged.bytes;
  const size_t begin = out->size();
  if (combiner == nullptr) {
    AppendSlices(merged.slices, out);
    stats.records = merged.records;
  } else {
    const auto start = std::chrono::steady_clock::now();
    Result<int64_t> combined = CombineSortedRun(merged.slices, comparator,
                                                combiner, conf, task_id, out);
    stats.combine_seconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    if (!combined.ok()) {
      return Status::Internal("combining a merged run: " +
                              combined.status().ToString());
    }
    stats.records = *combined;
  }
  stats.bytes = static_cast<int64_t>(out->size() - begin);
  return stats;
}

Result<SpillSegment> MergeSpillsToSlices(std::vector<SpillSegment> spills,
                                         const RawComparator* comparator) {
  if (spills.empty()) {
    return Status::InvalidArgument("a merge needs at least one spill");
  }
  const size_t num_partitions = spills[0].partitions.size();
  SpillSegment out;
  // runs[p][i]: spill i's sorted run of partition p, a stretch of
  // out.buffers.
  std::vector<std::vector<SpillSegment::Slice>> runs(num_partitions);
  for (SpillSegment& spill : spills) {
    if (spill.partitions.size() != num_partitions) {
      return Status::InvalidArgument(StringPrintf(
          "cannot merge spills with mismatched partition counts (%zu vs %zu)",
          spill.partitions.size(), num_partitions));
    }
    const size_t base = out.buffers.size();
    for (size_t p = 0; p < num_partitions; ++p) {
      SpillSegment::Slice run;
      if (!spill.sliced()) {
        run.offset = static_cast<size_t>(spill.partitions[p].offset);
        run.length = static_cast<size_t>(spill.partitions[p].length);
      } else if (spill.slices[p].size() > 1) {
        return Status::InvalidArgument(
            "a spill to merge holds more than one slice of a partition");
      } else if (!spill.slices[p].empty()) {
        run = spill.slices[p][0];
      }
      run.buffer += base;
      runs[p].push_back(run);
    }
    if (spill.sliced()) {
      for (std::string& buffer : spill.buffers) {
        out.buffers.push_back(std::move(buffer));
      }
    } else {
      out.buffers.push_back(std::move(spill.data));
    }
  }

  out.partitions.resize(num_partitions);
  out.slices.resize(num_partitions);
  int64_t offset = 0;
  for (size_t p = 0; p < num_partitions; ++p) {
    // The views are taken only now that out.buffers holds every spill and
    // no longer grows.
    std::vector<FramedRun> framed;
    framed.reserve(runs[p].size());
    for (const SpillSegment::Slice& run : runs[p]) {
      framed.push_back({{run.length == 0
                             ? std::string_view()
                             : std::string_view(out.buffers[run.buffer])
                                   .substr(run.offset, run.length)},
                        -1});
    }
    MRMB_ASSIGN_OR_RETURN(SlicedRun merged,
                          MergeFramedRuns(framed, comparator));
    std::vector<SpillSegment::Slice>& slices = out.slices[p];
    slices.reserve(merged.slices.size());
    for (size_t j = 0; j < merged.slices.size(); ++j) {
      const size_t input = merged.inputs[j];
      const SpillSegment::Slice& run = runs[p][input];
      slices.push_back(
          {run.buffer,
           run.offset + static_cast<size_t>(merged.slices[j].data() -
                                            framed[input].slices[0].data()),
           merged.slices[j].size()});
    }
    SpillSegment::PartitionRange& range = out.partitions[p];
    range.offset = offset;
    range.length = merged.bytes;
    range.records = merged.records;
    offset += merged.bytes;
  }
  return out;
}

Result<SpillSegment> MergeSegments(
    const std::vector<const SpillSegment*>& segments,
    const RawComparator* comparator, bool verify_checksums) {
  // Malformed inputs surface as Status, never an abort: segments reaching a
  // merge can now originate on disk (io/spill_store.h), where damage is a
  // recoverable event for the caller's retry machinery.
  if (segments.empty()) {
    return Status::InvalidArgument("MergeSegments needs at least one segment");
  }
  const size_t num_partitions = segments[0]->partitions.size();
  int64_t total_bytes = 0;
  for (const SpillSegment* segment : segments) {
    if (segment->partitions.size() != num_partitions) {
      return Status::InvalidArgument(StringPrintf(
          "cannot merge segments with mismatched partition counts (%zu vs "
          "%zu)",
          segment->partitions.size(), num_partitions));
    }
    total_bytes += segment->total_bytes();
  }

  SpillSegment out;
  out.data.reserve(static_cast<size_t>(total_bytes));
  out.partitions.resize(num_partitions);

  for (size_t p = 0; p < num_partitions; ++p) {
    SpillSegment::PartitionRange& range = out.partitions[p];
    range.offset = static_cast<int64_t>(out.data.size());
    std::vector<FramedRun> runs;
    runs.reserve(segments.size());
    for (const SpillSegment* segment : segments) {
      if (verify_checksums) {
        MRMB_RETURN_IF_ERROR(
            VerifySegmentPartition(*segment, static_cast<int>(p)));
      }
      runs.push_back({segment->PartitionSlices(static_cast<int>(p)), -1});
    }
    MRMB_ASSIGN_OR_RETURN(SlicedRun merged,
                          MergeFramedRuns(runs, comparator));
    AppendSlices(merged.slices, &out.data);
    range.records = merged.records;
    range.length = static_cast<int64_t>(out.data.size()) - range.offset;
  }
  SealSegment(&out);
  return out;
}

Result<SpillSegment> CompressSegment(MapOutputCodec codec,
                                     const SpillSegment& segment) {
  MRMB_CHECK(codec != MapOutputCodec::kNone);
  SpillSegment out;
  out.partitions.resize(segment.partitions.size());
  std::string staged;  // a sliced partition's bytes, the codec's input
  std::string frame;
  for (size_t p = 0; p < segment.partitions.size(); ++p) {
    SpillSegment::PartitionRange& range = out.partitions[p];
    range.offset = static_cast<int64_t>(out.data.size());
    MRMB_RETURN_IF_ERROR(BlockCompress(
        codec, segment.PartitionBytes(static_cast<int>(p), &staged), &frame));
    out.data.append(frame);
    range.length = static_cast<int64_t>(out.data.size()) - range.offset;
    range.records = segment.partitions[p].records;
    range.raw_length = segment.partitions[p].length;
  }
  SealSegment(&out);
  return out;
}

namespace {

// ReduceContext that frames every emitted record onto a writer and counts
// them.
class CombineContext final : public ReduceContext {
 public:
  CombineContext(const JobConf& conf, int task_id, BufferWriter* writer)
      : conf_(conf), task_id_(task_id), writer_(writer) {}

  void Emit(std::string_view key, std::string_view value) override {
    writer_->AppendVarint64(static_cast<int64_t>(key.size()));
    writer_->AppendVarint64(static_cast<int64_t>(value.size()));
    writer_->AppendRaw(key);
    writer_->AppendRaw(value);
    ++records_;
  }

  const JobConf& conf() const override { return conf_; }
  int task_id() const override { return task_id_; }
  int64_t records() const { return records_; }

 private:
  const JobConf& conf_;
  int task_id_;
  BufferWriter* writer_;
  int64_t records_ = 0;
};

// Adapts a GroupedIterator's values to the ValueIterator interface.
class CombineValues final : public ValueIterator {
 public:
  explicit CombineValues(GroupedIterator* groups) : groups_(groups) {}
  bool Next() override { return groups_->NextValue(); }
  std::string_view value() const override { return groups_->value(); }

 private:
  GroupedIterator* groups_;
};

// Runs `combiner` over every key group of the sorted `records`, framing its
// output onto `writer`; returns the number of records it emitted.
int64_t CombineGroups(RecordStream* records, const RawComparator* comparator,
                      Reducer* combiner, const JobConf& conf, int task_id,
                      BufferWriter* writer) {
  CombineContext context(conf, task_id, writer);
  GroupedIterator groups(records, comparator);
  while (groups.NextGroup()) {
    CombineValues values(&groups);
    combiner->Reduce(groups.group_key(), &values, &context);
  }
  return context.records();
}

}  // namespace

Result<int64_t> CombineSortedRun(const std::vector<std::string_view>& run,
                                 const RawComparator* comparator,
                                 Reducer* combiner, const JobConf& conf,
                                 int task_id, std::string* out) {
  MRMB_CHECK(combiner != nullptr);
  BufferWriter writer(out);
  SegmentReader reader(run, comparator->type());
  const int64_t records =
      CombineGroups(&reader, comparator, combiner, conf, task_id, &writer);
  MRMB_RETURN_IF_ERROR(reader.status());
  return records;
}

SpillSegment CombineSegment(const KvBuffer& buffer,
                            const RawComparator* comparator,
                            Reducer* combiner, const JobConf& conf,
                            int task_id, bool seal) {
  MRMB_CHECK(combiner != nullptr);
  SpillSegment out;
  out.partitions.resize(static_cast<size_t>(buffer.num_partitions()));
  BufferWriter writer(&out.data);
  for (int p = 0; p < buffer.num_partitions(); ++p) {
    SpillSegment::PartitionRange& range =
        out.partitions[static_cast<size_t>(p)];
    range.offset = static_cast<int64_t>(out.data.size());
    KvBuffer::SortedStream records = buffer.SortedPartition(p);
    range.records =
        CombineGroups(&records, comparator, combiner, conf, task_id, &writer);
    range.length = static_cast<int64_t>(out.data.size()) - range.offset;
  }
  if (seal) SealSegment(&out);
  return out;
}

}  // namespace mrmb

#include "mapred/node_combiner.h"

#include <string>
#include <string_view>

#include "common/logging.h"
#include "io/block_codec.h"
#include "io/checksum.h"
#include "mapred/map_output.h"

namespace mrmb {

Result<NodeCombineOutput> BuildNodeCombinedSegment(
    const std::vector<NodeCombineMember>& members, const JobConf& conf,
    const RawComparator* comparator, Reducer* combiner, int stream_id,
    std::vector<int>* corrupt_members) {
  if (members.empty()) {
    return Status::InvalidArgument("node combine needs at least one member");
  }
  const MapOutputCodec codec = conf.effective_map_output_codec();
  const size_t num_partitions = members[0].stored != nullptr
                                    ? members[0].stored->partitions().size()
                                    : members[0].segment->partitions.size();

  NodeCombineOutput out;
  out.segment.partitions.resize(num_partitions);
  auto blame = [corrupt_members](int map) {
    if (corrupt_members != nullptr) corrupt_members->push_back(map);
  };

  for (size_t p = 0; p < num_partitions; ++p) {
    // Bring every member's partition into raw framed form. `owned` keeps
    // disk reads and decompressed frames alive across the merge.
    std::vector<std::string> owned;
    // Up to two owned buffers per member (disk read + decompressed frame);
    // reserving both up front keeps the string_views in `runs` stable.
    owned.reserve(members.size() * 2);
    std::vector<FramedRun> runs;
    runs.reserve(members.size());
    for (const NodeCombineMember& member : members) {
      // The member's partition as stored (codec frames when the job
      // compresses), then as raw framed records: a RAM member's own slices,
      // or one owned string.
      std::vector<std::string_view> run;
      if (member.stored != nullptr) {
        Result<std::string> read = member.stored->ReadPartition(
            static_cast<int>(p), conf.checksum_map_output);
        if (!read.ok()) {
          blame(member.map);
          return read.status();
        }
        owned.push_back(std::move(read).value());
        run = {owned.back()};
      } else {
        if (conf.checksum_map_output) {
          const Status verify =
              VerifySegmentPartition(*member.segment, static_cast<int>(p));
          if (!verify.ok()) {
            blame(member.map);
            return verify;
          }
        }
        run = member.segment->PartitionSlices(static_cast<int>(p));
      }
      if (codec != MapOutputCodec::kNone) {
        // Codec outputs are contiguous: the run is one frame.
        std::string raw;
        const Status decode = BlockDecompress(run[0], &raw);
        if (!decode.ok()) {
          blame(member.map);
          return decode;
        }
        owned.push_back(std::move(raw));
        run = {owned.back()};
      }
      for (const std::string_view slice : run) {
        out.stats.input_bytes += static_cast<int64_t>(slice.size());
      }
      runs.push_back({std::move(run), member.map});
    }
    for (const NodeCombineMember& member : members) {
      const auto& ranges = member.stored != nullptr
                               ? member.stored->partitions()
                               : member.segment->partitions;
      out.stats.input_records += ranges[p].records;
    }

    SpillSegment::PartitionRange& range = out.segment.partitions[p];
    range.offset = static_cast<int64_t>(out.segment.data.size());
    std::vector<int> merge_corrupt;
    Result<MergeAppendStats> merged =
        MergeAndAppend(runs, comparator, combiner, conf, stream_id,
                       &out.segment.data, &merge_corrupt);
    if (!merged.ok()) {
      for (const int map : merge_corrupt) blame(map);
      return merged.status();
    }
    out.stats.combine_seconds += merged->combine_seconds;
    range.length = static_cast<int64_t>(out.segment.data.size()) -
                   range.offset;
    range.records = merged->records;
    out.stats.output_records += merged->records;
    out.stats.output_bytes += range.length;
  }
  SealSegment(&out.segment);
  if (codec != MapOutputCodec::kNone) {
    MRMB_ASSIGN_OR_RETURN(out.segment,
                          CompressSegment(codec, out.segment));
  }
  return out;
}

}  // namespace mrmb

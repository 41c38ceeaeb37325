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
      std::string_view wire;
      if (member.stored != nullptr) {
        Result<std::string> read = member.stored->ReadPartition(
            static_cast<int>(p), conf.checksum_map_output);
        if (!read.ok()) {
          blame(member.map);
          return read.status();
        }
        owned.push_back(std::move(read).value());
        wire = owned.back();
      } else {
        if (conf.checksum_map_output) {
          const Status verify =
              VerifySegmentPartition(*member.segment, static_cast<int>(p));
          if (!verify.ok()) {
            blame(member.map);
            return verify;
          }
        }
        wire = member.segment->PartitionData(static_cast<int>(p));
      }
      if (codec != MapOutputCodec::kNone) {
        std::string raw;
        const Status decode = BlockDecompress(wire, &raw);
        if (!decode.ok()) {
          blame(member.map);
          return decode;
        }
        owned.push_back(std::move(raw));
        wire = owned.back();
      }
      out.stats.input_bytes += static_cast<int64_t>(wire.size());
      runs.push_back({{wire}, member.map});
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

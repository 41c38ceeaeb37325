#include "rpc/shuffle_wire.h"

#include "io/block_codec.h"
#include "io/byte_buffer.h"

namespace mrmb {

const char* FetchStatusName(FetchStatus status) {
  switch (status) {
    case FetchStatus::kOk:
      return "ok";
    case FetchStatus::kStaleGeneration:
      return "stale-generation";
    case FetchStatus::kNotFound:
      return "not-found";
    case FetchStatus::kError:
      return "error";
    case FetchStatus::kDataLoss:
      return "data-loss";
  }
  return "unknown";
}

void EncodeShuffleBatchRequest(uint64_t job_digest,
                               const ShuffleFetchWant* wants, size_t count,
                               std::string* out) {
  BufferWriter writer(out);
  writer.AppendFixed32(kShuffleBatchRequestMagic);
  writer.AppendFixed64(job_digest);
  writer.AppendFixed32(static_cast<uint32_t>(count));
  writer.AppendFixed32(0);  // reserved flags
  for (size_t i = 0; i < count; ++i) {
    writer.AppendFixed32(static_cast<uint32_t>(wants[i].map));
    writer.AppendFixed32(static_cast<uint32_t>(wants[i].partition));
    writer.AppendFixed32(wants[i].generation);
  }
}

Status DecodeShuffleBatchRequestHead(std::string_view data,
                                     ShuffleBatchRequestHead* head) {
  if (data.size() != kShuffleBatchRequestHeadSize) {
    return Status::InvalidArgument("batch request: bad head size " +
                                   std::to_string(data.size()));
  }
  BufferReader reader(data);
  uint32_t magic = 0, count = 0, flags = 0;
  uint64_t digest = 0;
  MRMB_RETURN_IF_ERROR(reader.ReadFixed32(&magic));
  if (magic != kShuffleBatchRequestMagic) {
    return Status::InvalidArgument("batch request: bad magic");
  }
  MRMB_RETURN_IF_ERROR(reader.ReadFixed64(&digest));
  MRMB_RETURN_IF_ERROR(reader.ReadFixed32(&count));
  MRMB_RETURN_IF_ERROR(reader.ReadFixed32(&flags));
  if (flags != 0) {
    return Status::InvalidArgument("batch request: nonzero reserved flags");
  }
  if (count == 0 || count > kShuffleBatchMaxWants) {
    return Status::InvalidArgument("batch request: want count " +
                                   std::to_string(count) + " outside [1, " +
                                   std::to_string(kShuffleBatchMaxWants) +
                                   "]");
  }
  head->job_digest = digest;
  head->count = count;
  return Status::OK();
}

Status DecodeShuffleBatchWants(std::string_view data, uint32_t count,
                               std::vector<ShuffleFetchWant>* wants) {
  if (data.size() != static_cast<size_t>(count) * kShuffleBatchWantSize) {
    return Status::InvalidArgument("batch request: bad wants size " +
                                   std::to_string(data.size()) + " for " +
                                   std::to_string(count) + " wants");
  }
  wants->clear();
  wants->reserve(count);
  BufferReader reader(data);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t map = 0, partition = 0, generation = 0;
    MRMB_RETURN_IF_ERROR(reader.ReadFixed32(&map));
    MRMB_RETURN_IF_ERROR(reader.ReadFixed32(&partition));
    MRMB_RETURN_IF_ERROR(reader.ReadFixed32(&generation));
    ShuffleFetchWant want;
    want.map = static_cast<int>(map);
    want.partition = static_cast<int>(partition);
    want.generation = generation;
    wants->push_back(want);
  }
  return Status::OK();
}

void EncodeShuffleBatchEntryHeader(const ShuffleBatchEntryHeader& header,
                                   std::string* out) {
  BufferWriter writer(out);
  writer.AppendFixed32(kShuffleBatchEntryMagic);
  writer.AppendFixed32(header.index);
  writer.AppendByte(static_cast<uint8_t>(header.status));
  writer.AppendFixed32(header.generation);
  writer.AppendFixed64(static_cast<uint64_t>(header.raw_len));
  writer.AppendFixed32(header.partition_crc);
  writer.AppendFixed64(static_cast<uint64_t>(header.records));
  writer.AppendByte(static_cast<uint8_t>(header.encoding));
  writer.AppendFixed64(static_cast<uint64_t>(header.body_len));
}

Status DecodeShuffleBatchEntryHeader(std::string_view data,
                                     ShuffleBatchEntryHeader* header) {
  if (data.size() != kShuffleBatchEntryHeaderSize) {
    return Status::InvalidArgument("batch entry: bad header size " +
                                   std::to_string(data.size()));
  }
  BufferReader reader(data);
  uint32_t magic = 0;
  MRMB_RETURN_IF_ERROR(reader.ReadFixed32(&magic));
  if (magic != kShuffleBatchEntryMagic) {
    return Status::InvalidArgument("batch entry: bad magic");
  }
  uint8_t status = 0, encoding = 0;
  uint32_t index = 0, generation = 0, crc = 0;
  uint64_t raw_len = 0, records = 0, body_len = 0;
  MRMB_RETURN_IF_ERROR(reader.ReadFixed32(&index));
  MRMB_RETURN_IF_ERROR(reader.ReadByte(&status));
  MRMB_RETURN_IF_ERROR(reader.ReadFixed32(&generation));
  MRMB_RETURN_IF_ERROR(reader.ReadFixed64(&raw_len));
  MRMB_RETURN_IF_ERROR(reader.ReadFixed32(&crc));
  MRMB_RETURN_IF_ERROR(reader.ReadFixed64(&records));
  MRMB_RETURN_IF_ERROR(reader.ReadByte(&encoding));
  MRMB_RETURN_IF_ERROR(reader.ReadFixed64(&body_len));
  if (index >= kShuffleBatchMaxWants) {
    return Status::InvalidArgument("batch entry: index " +
                                   std::to_string(index) + " out of range");
  }
  if (status > static_cast<uint8_t>(FetchStatus::kDataLoss)) {
    return Status::InvalidArgument("batch entry: bad status byte");
  }
  if (encoding > static_cast<uint8_t>(FetchEncoding::kFrameStream)) {
    return Status::InvalidArgument("batch entry: bad encoding byte");
  }
  header->index = index;
  header->status = static_cast<FetchStatus>(status);
  header->generation = generation;
  header->raw_len = static_cast<int64_t>(raw_len);
  header->partition_crc = crc;
  header->records = static_cast<int64_t>(records);
  header->encoding = static_cast<FetchEncoding>(encoding);
  header->body_len = static_cast<int64_t>(body_len);
  return Status::OK();
}

Status ReassembleFrameStream(std::string_view body, std::string* wire_bytes) {
  wire_bytes->clear();
  BufferReader reader(body);
  while (!reader.AtEnd()) {
    uint32_t frame_len = 0;
    Status status = reader.ReadFixed32(&frame_len);
    if (!status.ok()) {
      return Status::InvalidArgument(
          "frame stream: torn length prefix at offset " +
          std::to_string(reader.position()));
    }
    if (frame_len < kCodecFrameHeaderSize || frame_len > reader.remaining()) {
      return Status::InvalidArgument(
          "frame stream: frame length " + std::to_string(frame_len) +
          " exceeds remaining " + std::to_string(reader.remaining()) +
          " bytes");
    }
    std::string_view frame;
    MRMB_RETURN_IF_ERROR(reader.ReadRaw(frame_len, &frame));
    std::string raw;
    MRMB_RETURN_IF_ERROR(BlockDecompress(frame, &raw));
    wire_bytes->append(raw);
  }
  return Status::OK();
}

}  // namespace mrmb

#include "io/byte_buffer.h"

namespace mrmb {

void BufferWriter::AppendFixed32(uint32_t value) {
  char bytes[4];
  StoreBigEndian32(value, bytes);
  AppendRaw(bytes, sizeof(bytes));
}

void BufferWriter::AppendFixed64(uint64_t value) {
  char bytes[8];
  StoreBigEndian64(value, bytes);
  AppendRaw(bytes, sizeof(bytes));
}

void BufferWriter::AppendVarint64(int64_t value) {
  char bytes[9];
  AppendRaw(bytes, static_cast<size_t>(EncodeVarint64(value, bytes) - bytes));
}

size_t VarintLength(int64_t value) {
  if (value >= -112 && value <= 127) return 1;
  const uint64_t magnitude = value < 0 ? ~static_cast<uint64_t>(value)
                                       : static_cast<uint64_t>(value);
  return 1 + static_cast<size_t>(8 - std::countl_zero(magnitude) / 8);
}

Status BufferReader::ReadByte(uint8_t* value) {
  if (remaining() < 1) return Status::OutOfRange("buffer underflow");
  *value = static_cast<uint8_t>(data_[pos_++]);
  return Status::OK();
}

Status BufferReader::ReadFixed32(uint32_t* value) {
  if (remaining() < 4) return Status::OutOfRange("buffer underflow");
  *value = LoadBigEndian32(data_.data() + pos_);
  pos_ += 4;
  return Status::OK();
}

Status BufferReader::ReadFixed64(uint64_t* value) {
  if (remaining() < 8) return Status::OutOfRange("buffer underflow");
  *value = LoadBigEndian64(data_.data() + pos_);
  pos_ += 8;
  return Status::OK();
}

Status BufferReader::ReadVarint64(int64_t* value) {
  size_t length = 0;
  MRMB_RETURN_IF_ERROR(
      DecodeVarint64(data_.substr(pos_), value, &length));
  pos_ += length;
  return Status::OK();
}

Status BufferReader::ReadRaw(size_t len, std::string_view* out) {
  if (remaining() < len) return Status::OutOfRange("buffer underflow");
  *out = data_.substr(pos_, len);
  pos_ += len;
  return Status::OK();
}

Status DecodeVarint64(std::string_view data, int64_t* value, size_t* length) {
  if (data.empty()) return Status::OutOfRange("vint underflow");
  const auto first = static_cast<int8_t>(data[0]);
  if (first >= -112) {
    *value = first;
    *length = 1;
    return Status::OK();
  }
  const bool negative = first < -120;
  const int num_bytes = negative ? -(first + 120) : -(first + 112);
  if (data.size() < static_cast<size_t>(num_bytes) + 1) {
    return Status::OutOfRange("vint underflow");
  }
  uint64_t magnitude = 0;
  for (int i = 0; i < num_bytes; ++i) {
    magnitude = (magnitude << 8) |
                static_cast<uint8_t>(data[static_cast<size_t>(i) + 1]);
  }
  *value = negative ? static_cast<int64_t>(~magnitude)
                    : static_cast<int64_t>(magnitude);
  *length = static_cast<size_t>(num_bytes) + 1;
  return Status::OK();
}

}  // namespace mrmb

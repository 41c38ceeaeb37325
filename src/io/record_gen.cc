#include "io/record_gen.h"

#include <array>
#include <cstring>

#include "common/logging.h"
#include "io/byte_buffer.h"

namespace mrmb {

namespace {

// The wire length header of a `len`-byte BytesWritable or Text payload.
std::string LengthHeader(DataType type, size_t len) {
  BufferWriter writer;
  if (type == DataType::kBytesWritable) {
    writer.AppendFixed32(static_cast<uint32_t>(len));
  } else {
    writer.AppendVarint64(static_cast<int64_t>(len));
  }
  return writer.data();
}

// 'a' + b % 26 for every byte value b: one table load per byte instead of
// a division.
constexpr std::array<char, 256> kLetters = [] {
  std::array<char, 256> letters{};
  for (size_t b = 0; b < letters.size(); ++b) {
    letters[b] = static_cast<char>('a' + b % 26);
  }
  return letters;
}();

// Maps every byte to 'a'..'z' so that Text payloads are valid UTF-8.
void ToLetters(char* out, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    out[i] = kLetters[static_cast<unsigned char>(out[i])];
  }
}

}  // namespace

RecordGenerator::RecordGenerator(Options options)
    : options_(options) {
  MRMB_CHECK_GT(options_.num_unique_keys, 0);
  MRMB_CHECK(options_.type == DataType::kBytesWritable ||
             options_.type == DataType::kText ||
             options_.type == DataType::kIntWritable ||
             options_.type == DataType::kLongWritable)
      << "record generation supports BytesWritable, Text, IntWritable and "
         "LongWritable";
  if (options_.type == DataType::kBytesWritable ||
      options_.type == DataType::kText) {
    MRMB_CHECK_GE(options_.key_size, sizeof(uint64_t))
        << "key payload must fit the 8-byte key id";
    key_header_ = LengthHeader(options_.type, options_.key_size);
    value_header_ = LengthHeader(options_.type, options_.value_size);
  }
  serialized_key_size_ = SerializedSizeFor(options_.type, options_.key_size);
  serialized_value_size_ =
      SerializedSizeFor(options_.type, options_.value_size);
}

void RecordGenerator::FillPayload(uint64_t stream_seed, char* out,
                                  size_t len) const {
  Rng rng(stream_seed);
  rng.Fill(out, len);
  if (options_.type == DataType::kText) ToLetters(out, len);
}

void RecordGenerator::SerializedKey(int64_t key_id, std::string* out) const {
  if (options_.type == DataType::kIntWritable) {
    out->resize(sizeof(uint32_t));
    StoreBigEndian32(static_cast<uint32_t>(key_id), out->data());
    return;
  }
  if (options_.type == DataType::kLongWritable) {
    out->resize(sizeof(uint64_t));
    StoreBigEndian64(static_cast<uint64_t>(key_id), out->data());
    return;
  }
  // Every byte of `out` is written below, so a reused string is not
  // cleared first.
  out->resize(serialized_key_size_);
  std::memcpy(out->data(), key_header_.data(), key_header_.size());
  char* payload = out->data() + key_header_.size();
  // Big-endian key id first: distinct ids sort and compare distinctly, and
  // identical ids yield identical bytes.
  StoreBigEndian64(static_cast<uint64_t>(key_id), payload);
  if (options_.type == DataType::kText) ToLetters(payload, sizeof(uint64_t));
  FillPayload(
      options_.seed ^ (0x517cc1b727220a95ULL + static_cast<uint64_t>(key_id)),
      payload + sizeof(uint64_t), options_.key_size - sizeof(uint64_t));
}

void RecordGenerator::SerializedValue(int64_t index, std::string* out) const {
  if (options_.type == DataType::kIntWritable) {
    out->resize(sizeof(uint32_t));
    StoreBigEndian32(static_cast<uint32_t>(index & 0x7fffffff), out->data());
    return;
  }
  if (options_.type == DataType::kLongWritable) {
    out->resize(sizeof(uint64_t));
    StoreBigEndian64(static_cast<uint64_t>(index), out->data());
    return;
  }
  out->resize(serialized_value_size_);
  std::memcpy(out->data(), value_header_.data(), value_header_.size());
  FillPayload(
      options_.seed ^ (0x2545f4914f6cdd1dULL + static_cast<uint64_t>(index)),
      out->data() + value_header_.size(), options_.value_size);
}

size_t RecordGenerator::framed_record_size() const {
  return VarintLength(static_cast<int64_t>(serialized_key_size_)) +
         VarintLength(static_cast<int64_t>(serialized_value_size_)) +
         serialized_key_size_ + serialized_value_size_;
}

int64_t RecordGenerator::RecordsForShuffleBytes(int64_t target_bytes) const {
  const auto frame = static_cast<int64_t>(framed_record_size());
  return (target_bytes + frame - 1) / frame;
}

}  // namespace mrmb

// Byte-oriented serialization primitives.
//
// BufferWriter appends big-endian fixed-width integers, Hadoop-style
// variable-length integers (WritableUtils.writeVInt encoding) and raw bytes
// to a growable buffer. BufferReader is the matching cursor-based decoder;
// all reads are bounds-checked and return Status instead of throwing.

#ifndef MRMB_IO_BYTE_BUFFER_H_
#define MRMB_IO_BYTE_BUFFER_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace mrmb {

class BufferWriter {
 public:
  BufferWriter() = default;
  explicit BufferWriter(std::string* out) : external_(out) {}

  // Big-endian fixed-width writes (Hadoop DataOutput convention).
  void AppendFixed32(uint32_t value);
  void AppendFixed64(uint64_t value);
  void AppendByte(uint8_t value) { buffer().push_back(static_cast<char>(value)); }
  void AppendRaw(const void* data, size_t len) {
    buffer().append(static_cast<const char*>(data), len);
  }
  void AppendRaw(std::string_view data) { buffer().append(data); }

  // Hadoop WritableUtils vint: single byte for [-112, 127]; otherwise a
  // length/sign marker byte followed by 1..8 magnitude bytes.
  void AppendVarint64(int64_t value);

  const std::string& data() const { return external_ ? *external_ : owned_; }
  std::string& buffer() { return external_ ? *external_ : owned_; }
  size_t size() const { return data().size(); }
  void Clear() { buffer().clear(); }

 private:
  std::string owned_;
  std::string* external_ = nullptr;
};

class BufferReader {
 public:
  explicit BufferReader(std::string_view data) : data_(data) {}

  Status ReadFixed32(uint32_t* value);
  Status ReadFixed64(uint64_t* value);
  Status ReadByte(uint8_t* value);
  Status ReadVarint64(int64_t* value);
  // Returns a view into the underlying data (no copy); valid while the
  // source buffer lives.
  Status ReadRaw(size_t len, std::string_view* out);

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// Decodes a Hadoop vint directly from `data`; on success stores the value
// and the encoded length. Used by raw comparators to skip length prefixes
// without a full reader.
Status DecodeVarint64(std::string_view data, int64_t* value, size_t* length);

// Returns the encoded size of a Hadoop vint for `value`.
size_t VarintLength(int64_t value);

// Writes the Hadoop vint for `value` at `out`, which must have room for
// VarintLength(value) bytes (at most 9); returns one past the last byte
// written. Inline so that fixed-layout writers (the sort buffer's record
// framing) pay one branch for the common single-byte lengths.
inline char* EncodeVarint64(int64_t value, char* out) {
  if (value >= -112 && value <= 127) {
    *out = static_cast<char>(value);
    return out + 1;
  }
  // WritableUtils.writeVLong: a marker byte carrying sign and width, then
  // the big-endian magnitude (one's complement for negatives).
  const uint64_t magnitude = value < 0 ? ~static_cast<uint64_t>(value)
                                       : static_cast<uint64_t>(value);
  const int num_bytes = 8 - std::countl_zero(magnitude) / 8;
  *out++ = static_cast<char>((value < 0 ? -120 : -112) - num_bytes);
  for (int shift = 8 * (num_bytes - 1); shift >= 0; shift -= 8) {
    *out++ = static_cast<char>(magnitude >> shift);
  }
  return out;
}

// Big-endian fixed-width stores and loads at raw memory, for callers that
// have already sized or bounds-checked it.
inline void StoreBigEndian32(uint32_t value, char* out) {
  if constexpr (std::endian::native == std::endian::little) {
    value = __builtin_bswap32(value);
  }
  std::memcpy(out, &value, sizeof(value));
}

inline void StoreBigEndian64(uint64_t value, char* out) {
  if constexpr (std::endian::native == std::endian::little) {
    value = __builtin_bswap64(value);
  }
  std::memcpy(out, &value, sizeof(value));
}

inline uint32_t LoadBigEndian32(const char* in) {
  uint32_t value;
  std::memcpy(&value, in, sizeof(value));
  if constexpr (std::endian::native == std::endian::little) {
    value = __builtin_bswap32(value);
  }
  return value;
}

inline uint64_t LoadBigEndian64(const char* in) {
  uint64_t value;
  std::memcpy(&value, in, sizeof(value));
  if constexpr (std::endian::native == std::endian::little) {
    value = __builtin_bswap64(value);
  }
  return value;
}

}  // namespace mrmb

#endif  // MRMB_IO_BYTE_BUFFER_H_

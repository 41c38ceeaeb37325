#include "io/block_codec.h"

#include <bit>
#include <cstring>

#include "common/logging.h"
#include "common/strings.h"
#include "io/byte_buffer.h"
#include "io/checksum.h"
#include "io/codec.h"

namespace mrmb {

namespace {

constexpr uint32_t kFrameMagic = 0x4d42424bu;  // "MBBK"

constexpr uint8_t kMethodStored = 0;
constexpr uint8_t kMethodLz4 = 1;
constexpr uint8_t kMethodDeflate = 2;

// Frames larger than this are rejected before any allocation happens; the
// data plane compresses per-partition ranges, which are orders of magnitude
// smaller.
constexpr uint64_t kMaxFrameRawSize = 1ull << 32;

// --- LZ4-style match finder parameters ---
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;  // 16-bit offsets
// One position per hash bucket, 16 KB of table: small enough to live on
// the stack and stay in L1 for every block.
constexpr int kHashBits = 12;
// LZ4's skip acceleration: after 2^kSkipTrigger consecutive misses the
// probe stride grows by one byte, and keeps growing while nothing matches,
// so incompressible stretches cost a fraction of a probe per byte.
constexpr uint32_t kSkipTrigger = 6;
// The classic LZ4 end-of-block restrictions: no match starts within the
// last 12 bytes, and the final 5 bytes are always literals. They guarantee
// the decoder's token/offset reads never straddle the end of the stream.
constexpr size_t kMatchStartMargin = 12;
constexpr size_t kLastLiterals = 5;

inline uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint32_t HashQuad(const uint8_t* p) {
  return (Load32(p) * 2654435761u) >> (32 - kHashBits);
}

// Length of the common prefix of a and b, eight bytes per compare.
inline size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t max_len) {
  static_assert(std::endian::native == std::endian::little,
                "word-wise match extension assumes little-endian loads");
  size_t len = 0;
  while (len + sizeof(uint64_t) <= max_len) {
    uint64_t wa;
    uint64_t wb;
    std::memcpy(&wa, a + len, sizeof(wa));
    std::memcpy(&wb, b + len, sizeof(wb));
    const uint64_t diff = wa ^ wb;
    if (diff != 0) {
      return len + (static_cast<size_t>(std::countr_zero(diff)) >> 3);
    }
    len += sizeof(uint64_t);
  }
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

uint8_t* AppendRunLength(size_t len, uint8_t* op) {
  for (; len >= 255; len -= 255) *op++ = 0xff;
  *op++ = static_cast<uint8_t>(len);
  return op;
}

// Writes one sequence: `lit_len` literals, then a match of `match_len`
// bytes `offset` back (match_len 0: literals only, the block's final
// sequence). Returns the new output cursor.
uint8_t* EmitSequence(const uint8_t* literals, size_t lit_len, size_t offset,
                      size_t match_len, uint8_t* op) {
  uint8_t* token = op++;
  *token = static_cast<uint8_t>((lit_len < 15 ? lit_len : 15) << 4);
  if (lit_len >= 15) op = AppendRunLength(lit_len - 15, op);
  std::memcpy(op, literals, lit_len);
  op += lit_len;
  if (match_len == 0) return op;
  *op++ = static_cast<uint8_t>(offset & 0xff);
  *op++ = static_cast<uint8_t>(offset >> 8);
  const size_t code = match_len - kMinMatch;
  *token |= static_cast<uint8_t>(code < 15 ? code : 15);
  if (code >= 15) op = AppendRunLength(code - 15, op);
  return op;
}

// CRC32C over the method+raw_len header bytes followed by the payload —
// a corrupted length field fails the checksum before any allocation is
// sized from it.
uint32_t FrameCrc(std::string_view header_tail, std::string_view payload) {
  return Crc32c(Crc32c(kCrc32cInit, header_tail), payload);
}

}  // namespace

const char* MapOutputCodecName(MapOutputCodec codec) {
  switch (codec) {
    case MapOutputCodec::kNone:
      return "none";
    case MapOutputCodec::kLz4:
      return "lz4";
    case MapOutputCodec::kDeflate:
      return "deflate";
  }
  return "unknown";
}

Result<MapOutputCodec> MapOutputCodecByName(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "none" || lower == "off") return MapOutputCodec::kNone;
  if (lower == "lz4") return MapOutputCodec::kLz4;
  if (lower == "deflate" || lower == "zlib") return MapOutputCodec::kDeflate;
  return Status::InvalidArgument("unknown map-output codec: '" + name +
                                 "' (expected none, lz4 or deflate)");
}

size_t Lz4CompressBound(size_t raw_len) {
  return raw_len + raw_len / 255 + 16;
}

void Lz4CompressBlock(std::string_view input, std::string* out) {
  out->clear();
  const size_t n = input.size();
  if (n == 0) return;
  // Every sequence fits the bound, so the cursor below writes without
  // capacity checks; the string is trimmed to what was written.
  out->resize(Lz4CompressBound(n));
  const uint8_t* const base = reinterpret_cast<const uint8_t*>(input.data());
  uint8_t* const begin = reinterpret_cast<uint8_t*>(out->data());
  uint8_t* op = begin;
  size_t anchor = 0;
  if (n > kMatchStartMargin) {
    // Single-probe (LZ4-fast) finder: each bucket remembers the last
    // position that hashed there, and a position gets exactly one
    // candidate. Every bucket starts out naming position 0, a real
    // candidate like any other — the 4-byte compare decides.
    uint32_t table[size_t{1} << kHashBits] = {};
    const size_t match_start_limit = n - kMatchStartMargin;
    const size_t match_end_limit = n - kLastLiterals;
    uint32_t misses = 1u << kSkipTrigger;
    size_t pos = 1;
    while (pos < match_start_limit) {
      const uint32_t h = HashQuad(base + pos);
      size_t cand = table[h];
      table[h] = static_cast<uint32_t>(pos);
      if (pos - cand > kMaxOffset ||
          Load32(base + cand) != Load32(base + pos)) {
        pos += misses++ >> kSkipTrigger;
        continue;
      }
      size_t len = kMinMatch + MatchLength(base + cand + kMinMatch,
                                           base + pos + kMinMatch,
                                           match_end_limit - pos - kMinMatch);
      // Extend backwards over literals a growing probe stride jumped past.
      while (pos > anchor && cand > 0 && base[pos - 1] == base[cand - 1]) {
        --pos;
        --cand;
        ++len;
      }
      op = EmitSequence(base + anchor, pos - anchor, pos - cand, len, op);
      pos += len;
      anchor = pos;
      misses = 1u << kSkipTrigger;
      // Positions inside a match are never probed; index one near its
      // end, as LZ4 does, so the table keeps up with the data just seen.
      if (pos < match_start_limit) {
        table[HashQuad(base + pos - 2)] = static_cast<uint32_t>(pos - 2);
      }
    }
  }
  op = EmitSequence(base + anchor, n - anchor, 0, 0, op);
  out->resize(static_cast<size_t>(op - begin));
}

Status Lz4DecompressBlock(std::string_view input, size_t raw_len,
                          std::string* out) {
  out->clear();
  if (raw_len > kMaxFrameRawSize) {
    return Status::InvalidArgument("lz4 block claims implausible raw size " +
                                   std::to_string(raw_len));
  }
  // All bounds below keep out->size() <= raw_len, so this reserve is the
  // only allocation and the in-place match copy never invalidates itself.
  out->reserve(raw_len);
  const size_t n = input.size();
  size_t ip = 0;

  const auto read_run_length = [&](size_t nibble, size_t* len) -> Status {
    *len = nibble;
    if (nibble != 15) return Status::OK();
    uint8_t b;
    do {
      if (ip >= n) {
        return Status::InvalidArgument("lz4 block truncated in length field");
      }
      b = static_cast<uint8_t>(input[ip++]);
      *len += b;
      if (*len > kMaxFrameRawSize) {
        return Status::InvalidArgument("lz4 run length overflows block");
      }
    } while (b == 0xff);
    return Status::OK();
  };

  while (ip < n) {
    const uint8_t token = static_cast<uint8_t>(input[ip++]);
    size_t literal_len = 0;
    MRMB_RETURN_IF_ERROR(read_run_length(token >> 4, &literal_len));
    if (literal_len > n - ip) {
      return Status::InvalidArgument("lz4 literal run reads past block end");
    }
    if (literal_len > raw_len - out->size()) {
      return Status::InvalidArgument("lz4 literal run overflows raw size");
    }
    out->append(input.data() + ip, literal_len);
    ip += literal_len;
    if (ip == n) break;  // final sequence: literals only, no match part

    if (n - ip < 2) {
      return Status::InvalidArgument("lz4 block truncated in match offset");
    }
    const size_t offset = static_cast<uint8_t>(input[ip]) |
                          (static_cast<size_t>(
                               static_cast<uint8_t>(input[ip + 1]))
                           << 8);
    ip += 2;
    if (offset == 0 || offset > out->size()) {
      return Status::InvalidArgument(
          StringPrintf("lz4 match offset %zu out of range (window %zu)",
                       offset, out->size()));
    }
    size_t match_len = 0;
    MRMB_RETURN_IF_ERROR(read_run_length(token & 0xf, &match_len));
    match_len += kMinMatch;
    if (match_len > raw_len - out->size()) {
      return Status::InvalidArgument("lz4 match overflows raw size");
    }
    // Byte-wise copy: overlapping matches (offset < match_len) replicate
    // the run, exactly like the reference decoder.
    size_t src = out->size() - offset;
    for (size_t i = 0; i < match_len; ++i) {
      out->push_back((*out)[src + i]);
    }
  }
  if (out->size() != raw_len) {
    return Status::InvalidArgument(
        StringPrintf("lz4 block decoded to %zu bytes, frame claims %zu",
                     out->size(), raw_len));
  }
  return Status::OK();
}

Status BlockCompress(MapOutputCodec codec, std::string_view raw,
                     std::string* frame) {
  frame->clear();
  std::string payload;
  uint8_t method = kMethodStored;
  switch (codec) {
    case MapOutputCodec::kNone:
      return Status::InvalidArgument(
          "BlockCompress requires a real codec; 'none' bypasses framing");
    case MapOutputCodec::kLz4:
      Lz4CompressBlock(raw, &payload);
      method = kMethodLz4;
      break;
    case MapOutputCodec::kDeflate:
      MRMB_RETURN_IF_ERROR(DeflateCompress(raw, &payload));
      method = kMethodDeflate;
      break;
  }
  if (payload.size() >= raw.size()) {
    // Stored fallback: incompressible payloads cost the 17-byte header,
    // never an expansion of the payload itself.
    payload.assign(raw.data(), raw.size());
    method = kMethodStored;
  }
  BufferWriter writer(frame);
  writer.AppendFixed32(kFrameMagic);
  writer.AppendByte(method);
  writer.AppendFixed64(raw.size());
  const std::string_view header_tail =
      std::string_view(*frame).substr(4, kCodecFrameHeaderSize - 8);
  writer.AppendFixed32(FrameCrc(header_tail, payload));
  writer.AppendRaw(payload);
  return Status::OK();
}

void BlockStore(std::string_view raw, std::string* frame) {
  frame->clear();
  BufferWriter writer(frame);
  writer.AppendFixed32(kFrameMagic);
  writer.AppendByte(kMethodStored);
  writer.AppendFixed64(raw.size());
  const std::string_view header_tail =
      std::string_view(*frame).substr(4, kCodecFrameHeaderSize - 8);
  writer.AppendFixed32(FrameCrc(header_tail, raw));
  writer.AppendRaw(raw);
}

namespace {

uint32_t LoadBe32(const char* p) {
  return (static_cast<uint32_t>(static_cast<uint8_t>(p[0])) << 24) |
         (static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 16) |
         (static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 8) |
         static_cast<uint32_t>(static_cast<uint8_t>(p[3]));
}

void StoreBe32(uint32_t v, char* p) {
  p[0] = static_cast<char>(v >> 24);
  p[1] = static_cast<char>(v >> 16);
  p[2] = static_cast<char>(v >> 8);
  p[3] = static_cast<char>(v);
}

// CRC over the checksummed span of `frame` (method + raw_len + payload).
uint32_t FrameBodyCrc(const std::string& frame) {
  const std::string_view view(frame);
  return FrameCrc(view.substr(4, kCodecFrameHeaderSize - 8),
                  view.substr(kCodecFrameHeaderSize));
}

}  // namespace

Status RepairCodecFrameSingleBitFlip(std::string* frame) {
  if (frame->size() < kCodecFrameHeaderSize) {
    return Status::DataLoss(
        StringPrintf("codec frame too short to repair (%zu bytes)",
                     frame->size()));
  }
  // The magic is a known plaintext: a flip landing there is recognized by
  // Hamming distance 1 and healed by rewriting the constant. The rest of
  // the frame must then verify untouched — if it doesn't, the damage was
  // wider than one bit.
  const uint32_t magic = LoadBe32(frame->data());
  if (magic != kFrameMagic) {
    if (std::popcount(magic ^ kFrameMagic) != 1) {
      return Status::DataLoss(
          StringPrintf("codec frame magic %08x is more than one bit off",
                       magic));
    }
    StoreBe32(kFrameMagic, frame->data());
  }
  const uint32_t stored = LoadBe32(frame->data() + kCodecFrameHeaderSize - 4);
  const uint32_t computed = FrameBodyCrc(*frame);
  const uint32_t syndrome = stored ^ computed;
  if (syndrome == 0) return Status::OK();
  if (magic != kFrameMagic) {
    // The single budgeted flip was already spent on the magic.
    return Status::DataLoss("codec frame magic and body are both damaged");
  }
  // Try a flip in the checksummed span first (method/raw_len/payload, the
  // overwhelming majority of the frame); only a one-bit syndrome with no
  // matching body position can be a flip of the CRC field itself.
  size_t byte = 0;
  int bit = 0;
  const size_t body_len = frame->size() - 8;  // everything but magic + crc
  if (FindCrc32cSingleBitFlip(syndrome, body_len, &byte, &bit)) {
    // Body bytes skip the 4-byte CRC field at [13, 17).
    const size_t frame_index =
        byte < kCodecFrameHeaderSize - 8 ? 4 + byte : 8 + byte;
    (*frame)[frame_index] = static_cast<char>(
        static_cast<uint8_t>((*frame)[frame_index]) ^ (1u << bit));
    if (FrameBodyCrc(*frame) != stored) {
      return Status::Internal("codec frame repair did not converge");
    }
    return Status::OK();
  }
  if (std::popcount(syndrome) == 1) {
    StoreBe32(computed, frame->data() + kCodecFrameHeaderSize - 4);
    return Status::OK();
  }
  return Status::DataLoss(StringPrintf(
      "codec frame CRC syndrome %08x is not a single-bit flip", syndrome));
}

namespace {

struct FrameHeader {
  uint8_t method = 0;
  uint64_t raw_len = 0;
  uint32_t crc = 0;
  std::string_view payload;
};

Status ParseFrameHeader(std::string_view frame, FrameHeader* header) {
  if (frame.size() < kCodecFrameHeaderSize) {
    return Status::InvalidArgument(
        StringPrintf("codec frame truncated: %zu bytes, header needs %zu",
                     frame.size(), kCodecFrameHeaderSize));
  }
  BufferReader reader(frame);
  uint32_t magic = 0;
  MRMB_RETURN_IF_ERROR(reader.ReadFixed32(&magic));
  if (magic != kFrameMagic) {
    return Status::InvalidArgument(
        StringPrintf("bad codec frame magic %08x", magic));
  }
  MRMB_RETURN_IF_ERROR(reader.ReadByte(&header->method));
  MRMB_RETURN_IF_ERROR(reader.ReadFixed64(&header->raw_len));
  MRMB_RETURN_IF_ERROR(reader.ReadFixed32(&header->crc));
  if (header->method > kMethodDeflate) {
    return Status::InvalidArgument("unknown codec frame method " +
                                   std::to_string(header->method));
  }
  if (header->raw_len > kMaxFrameRawSize) {
    return Status::InvalidArgument("codec frame claims implausible raw size " +
                                   std::to_string(header->raw_len));
  }
  header->payload = frame.substr(kCodecFrameHeaderSize);
  const uint32_t actual = FrameCrc(frame.substr(4, kCodecFrameHeaderSize - 8),
                                   header->payload);
  if (actual != header->crc) {
    return Status::DataLoss(StringPrintf(
        "codec frame failed CRC32C verification (stored %08x, computed %08x "
        "over %zu payload bytes)",
        header->crc, actual, header->payload.size()));
  }
  return Status::OK();
}

}  // namespace

Status BlockDecompress(std::string_view frame, std::string* raw) {
  raw->clear();
  FrameHeader header;
  MRMB_RETURN_IF_ERROR(ParseFrameHeader(frame, &header));
  switch (header.method) {
    case kMethodStored:
      if (header.payload.size() != header.raw_len) {
        return Status::InvalidArgument(StringPrintf(
            "stored codec frame carries %zu bytes, header claims %llu",
            header.payload.size(),
            static_cast<unsigned long long>(header.raw_len)));
      }
      raw->assign(header.payload.data(), header.payload.size());
      return Status::OK();
    case kMethodLz4:
      return Lz4DecompressBlock(header.payload,
                                static_cast<size_t>(header.raw_len), raw);
    case kMethodDeflate: {
      MRMB_RETURN_IF_ERROR(DeflateDecompress(header.payload, raw));
      if (raw->size() != header.raw_len) {
        const size_t decoded = raw->size();
        raw->clear();
        return Status::InvalidArgument(StringPrintf(
            "deflate codec frame decoded to %zu bytes, header claims %llu",
            decoded, static_cast<unsigned long long>(header.raw_len)));
      }
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown codec frame method");
}

Result<uint64_t> CodecFrameRawSize(std::string_view frame) {
  FrameHeader header;
  MRMB_RETURN_IF_ERROR(ParseFrameHeader(frame, &header));
  return header.raw_len;
}

double MeasureCodecRatio(MapOutputCodec codec, std::string_view sample) {
  if (codec == MapOutputCodec::kNone || sample.empty()) return 1.0;
  std::string frame;
  const Status status = BlockCompress(codec, sample, &frame);
  MRMB_CHECK_OK(status);
  return static_cast<double>(frame.size()) /
         static_cast<double>(sample.size());
}

}  // namespace mrmb

#include "io/checksum.h"

#include <array>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "common/strings.h"

#if defined(__x86_64__) || defined(__i386__)
#define MRMB_CRC32C_X86 1
#include <nmmintrin.h>
#endif

namespace mrmb {

namespace {

// CRC32C (Castagnoli, reflected polynomial 0x82f63b78) lookup tables.
// Table 0 is the classic slice-by-one table; tables 1..7 extend it so that
// table[k][b] is the CRC contribution of byte value b placed k positions
// before the end of an 8-byte window.
const std::array<std::array<uint32_t, 256>, 8>& Crc32cTables() {
  static const std::array<std::array<uint32_t, 256>, 8> tables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0);
      }
      t[0][i] = crc;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
    return t;
  }();
  return tables;
}

bool HardwareDisabledByEnv() {
  const char* env = std::getenv("MRMB_DISABLE_HW_CRC32C");
  if (env == nullptr) return false;
  return !(env[0] == '\0' || (env[0] == '0' && env[1] == '\0'));
}

using Crc32cFn = uint32_t (*)(uint32_t, std::string_view);

Crc32cFn ResolveCrc32c() {
  if (Crc32cHardwareAvailable() && !HardwareDisabledByEnv()) {
    return &Crc32cHardware;
  }
  return &Crc32cSlicing8;
}

Crc32cFn DispatchedCrc32c() {
  static const Crc32cFn fn = ResolveCrc32c();
  return fn;
}

}  // namespace

uint32_t Crc32cReference(uint32_t crc, std::string_view data) {
  const std::array<uint32_t, 256>& table = Crc32cTables()[0];
  crc = ~crc;
  for (const char c : data) {
    crc = table[(crc ^ static_cast<uint8_t>(c)) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32cSlicing8(uint32_t crc, std::string_view data) {
  if constexpr (std::endian::native != std::endian::little) {
    // The 8-byte-load formulation below assumes little-endian lane order;
    // big-endian hosts fall back to the bit-identical reference kernel.
    return Crc32cReference(crc, data);
  }
  const auto& t = Crc32cTables();
  const char* p = data.data();
  size_t len = data.size();
  crc = ~crc;
  while (len >= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    word ^= crc;
    crc = t[7][word & 0xff] ^ t[6][(word >> 8) & 0xff] ^
          t[5][(word >> 16) & 0xff] ^ t[4][(word >> 24) & 0xff] ^
          t[3][(word >> 32) & 0xff] ^ t[2][(word >> 40) & 0xff] ^
          t[1][(word >> 48) & 0xff] ^ t[0][word >> 56];
    p += 8;
    len -= 8;
  }
  while (len-- > 0) {
    crc = t[0][(crc ^ static_cast<uint8_t>(*p++)) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

#ifdef MRMB_CRC32C_X86

bool Crc32cHardwareAvailable() { return __builtin_cpu_supports("sse4.2"); }

__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(
    uint32_t crc, std::string_view data) {
  const char* p = data.data();
  size_t len = data.size();
  crc = ~crc;
#if defined(__x86_64__)
  uint64_t crc64 = crc;
  while (len >= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
    p += 8;
    len -= 8;
  }
  crc = static_cast<uint32_t>(crc64);
#else
  while (len >= 4) {
    uint32_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u32(crc, word);
    p += 4;
    len -= 4;
  }
#endif
  while (len-- > 0) {
    crc = _mm_crc32_u8(crc, static_cast<uint8_t>(*p++));
  }
  return ~crc;
}

#else  // !MRMB_CRC32C_X86

bool Crc32cHardwareAvailable() { return false; }

uint32_t Crc32cHardware(uint32_t crc, std::string_view data) {
  // Never dispatched to on non-x86; defined so callers always link.
  return Crc32cSlicing8(crc, data);
}

#endif  // MRMB_CRC32C_X86

uint32_t Crc32c(uint32_t crc, std::string_view data) {
  return DispatchedCrc32c()(crc, data);
}

const char* Crc32cImplName() {
  return DispatchedCrc32c() == &Crc32cHardware ? "sse4.2" : "slicing-by-8";
}

namespace {

// CRC32C of one partition's bytes, streamed over its slices in order.
uint32_t PartitionCrc(const SpillSegment& segment, int partition) {
  uint32_t crc = kCrc32cInit;
  for (const std::string_view slice : segment.PartitionSlices(partition)) {
    crc = Crc32c(crc, slice);
  }
  return crc;
}

}  // namespace

void SealSegment(SpillSegment* segment) {
  MRMB_CHECK(segment != nullptr);
  for (size_t p = 0; p < segment->partitions.size(); ++p) {
    segment->partitions[p].crc = PartitionCrc(*segment, static_cast<int>(p));
  }
  segment->sealed = true;
}

Status VerifySegmentPartition(const SpillSegment& segment, int partition) {
  MRMB_CHECK_GE(partition, 0);
  MRMB_CHECK_LT(static_cast<size_t>(partition), segment.partitions.size());
  if (!segment.sealed) {
    return Status::FailedPrecondition(
        "segment was never sealed; cannot verify partition " +
        std::to_string(partition));
  }
  const SpillSegment::PartitionRange& range =
      segment.partitions[static_cast<size_t>(partition)];
  const uint32_t actual = PartitionCrc(segment, partition);
  if (actual != range.crc) {
    return Status::DataLoss(StringPrintf(
        "partition %d failed CRC32C verification (stored %08x, computed "
        "%08x over %lld bytes)",
        partition, range.crc, actual, static_cast<long long>(range.length)));
  }
  return Status::OK();
}

Status VerifySegment(const SpillSegment& segment) {
  for (size_t p = 0; p < segment.partitions.size(); ++p) {
    MRMB_RETURN_IF_ERROR(VerifySegmentPartition(segment, static_cast<int>(p)));
  }
  return Status::OK();
}

bool FindCrc32cSingleBitFlip(uint32_t syndrome, size_t len, size_t* byte_index,
                             int* bit_index) {
  if (len == 0 || syndrome == 0) return false;
  const std::array<uint32_t, 256>& table = Crc32cTables()[0];
  // delta[b] is the CRC difference caused by flipping bit b of the byte
  // currently under the scan, propagated through the bytes behind it. The
  // init/xorout constants cancel in the XOR of two checksums, and the table
  // is XOR-linear (table[x ^ y] == table[x] ^ table[y]), so each step behind
  // the flip advances the difference exactly like one zero byte of state:
  //   delta' = table[delta & 0xff] ^ (delta >> 8).
  uint32_t delta[8];
  for (int b = 0; b < 8; ++b) delta[b] = table[1u << b];
  for (size_t back = 0; back < len; ++back) {
    for (int b = 0; b < 8; ++b) {
      if (delta[b] == syndrome) {
        *byte_index = len - 1 - back;
        *bit_index = b;
        return true;
      }
    }
    for (int b = 0; b < 8; ++b) {
      delta[b] = table[delta[b] & 0xff] ^ (delta[b] >> 8);
    }
  }
  return false;
}

}  // namespace mrmb

// CRC32C (Castagnoli) checksums and spill-segment integrity sealing.
//
// Hadoop's shuffle is only trustworthy because every IFile segment carries a
// checksum verified on the consumer side; a mismatch fails the fetch and
// ultimately re-executes the producing map instead of silently feeding a
// reducer corrupt bytes. This module gives the functional engine the same
// property: every SpillSegment partition range is sealed with a CRC32C at
// spill/merge time and verified at shuffle-read time. CRC32C is the
// polynomial used by Hadoop's native checksumming (and iSCSI/ext4).
//
// Three implementations live here, all bit-identical:
//   - Crc32cReference: the original slice-by-one table loop. Kept as the
//     ground truth for property tests and as the micro-benchmark baseline.
//   - Crc32cSlicing8: slicing-by-8 software kernel (eight 256-entry tables,
//     one 8-byte load per iteration) — the portable fast path.
//   - Crc32cHardware: SSE4.2 `crc32` instruction path (x86 only).
// `Crc32c` dispatches once at first use: hardware when the CPU supports
// SSE4.2 and the MRMB_DISABLE_HW_CRC32C environment variable is unset/0,
// otherwise slicing-by-8.

#ifndef MRMB_IO_CHECKSUM_H_
#define MRMB_IO_CHECKSUM_H_

#include <cstdint>
#include <string_view>

#include "common/status.h"
#include "io/kv_buffer.h"

namespace mrmb {

// Extends a running CRC32C over `data`. Start from `kCrc32cInit` (i.e. 0);
// the returned value is the finalized checksum of everything fed so far.
inline constexpr uint32_t kCrc32cInit = 0;
uint32_t Crc32c(uint32_t crc, std::string_view data);

// One-shot convenience.
inline uint32_t Crc32c(std::string_view data) {
  return Crc32c(kCrc32cInit, data);
}

// Reference slice-by-one table implementation (the pre-optimization kernel).
// Property tests check every fast path against this on random inputs.
uint32_t Crc32cReference(uint32_t crc, std::string_view data);
inline uint32_t Crc32cReference(std::string_view data) {
  return Crc32cReference(kCrc32cInit, data);
}

// Slicing-by-8 software kernel. Always available.
uint32_t Crc32cSlicing8(uint32_t crc, std::string_view data);

// SSE4.2 hardware kernel. Only call when Crc32cHardwareAvailable() is true;
// calling it on a CPU without SSE4.2 is undefined (illegal instruction).
uint32_t Crc32cHardware(uint32_t crc, std::string_view data);

// True when the running CPU exposes SSE4.2 (regardless of the
// MRMB_DISABLE_HW_CRC32C override, which only affects dispatch).
bool Crc32cHardwareAvailable();

// Name of the kernel `Crc32c` dispatches to: "sse4.2" or "slicing-by-8".
const char* Crc32cImplName();

// Computes and stores the CRC32C of every partition range of `segment`
// (SpillSegment::PartitionRange::crc) and marks the segment sealed. A sliced
// segment's CRCs are streamed over its slices in order, so they equal those
// of a contiguous segment holding the same bytes.
void SealSegment(SpillSegment* segment);

// Verifies one partition range of a sealed segment against its stored
// checksum. Returns DataLoss naming the partition on mismatch, and
// FailedPrecondition if the segment was never sealed.
Status VerifySegmentPartition(const SpillSegment& segment, int partition);

// Verifies every partition range of a sealed segment.
Status VerifySegment(const SpillSegment& segment);

// Locates the unique single-bit flip (if any) that turns a message whose
// CRC32C computes to X into one whose checksum is X ^ `syndrome`. CRC32C is
// linear over GF(2), so the syndrome of a bit flip depends only on the bit's
// distance from the end of the message — the scan propagates each candidate
// flip's CRC delta backwards from the tail in O(8·len) table lookups with no
// re-checksumming. On success stores the byte index (0 = first message byte)
// and bit index (0 = LSB) and returns true; returns false when no single-bit
// flip explains the syndrome (multi-bit damage). Single-bit syndromes are
// unique below CRC32C's two-bit-error detection bound (~256 MiB), far above
// any spill block, so a hit identifies *the* flipped bit. Used by the spill
// store's scrub/repair path (io/spill_store.h).
bool FindCrc32cSingleBitFlip(uint32_t syndrome, size_t len, size_t* byte_index,
                             int* bit_index);

}  // namespace mrmb

#endif  // MRMB_IO_CHECKSUM_H_

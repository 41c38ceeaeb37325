// Wire format for the real-socket shuffle fetch protocol.
//
// The transport (src/net/shuffle_transport) moves sealed map-output
// partitions between a server owned by the job and one client per run.
// Both sides speak the length-delimited protocol defined here; the
// encode/decode helpers live in their own small library (mrmb_shuffle_rpc)
// so the net layer can use them without pulling in the cluster-level RPC
// stack. All integers are big-endian (BufferWriter convention).
//
// One request carries a batch of wants; the server streams back one
// length-delimited response per want, in request order, over the same
// connection — one round trip amortized over the whole batch. Per-entry
// status means a stale generation or a data-loss on one member never fails
// the batch. A request that does not start with the batch magic is
// protocol garbage: the server drops that connection.
//
// Batch request head (20 bytes) followed by `count` 12-byte wants:
//
//   fixed32  magic      'MRF2' (0x4d524632)
//   fixed64  job_digest JobConf::Digest() of the job being fetched
//   fixed32  count      number of wants that follow; [1, kShuffleBatchMaxWants]
//   fixed32  flags      reserved, must be 0
//
// Want (12 bytes each):
//
//   fixed32  map        map task (shuffle stream) id
//   fixed32  partition  reduce partition id
//   fixed32  generation map-output generation the client believes is live
//
// Batch entry header (42 bytes) followed by `body_len` bytes of body — one
// per want, streamed back in request order:
//
//   fixed32  magic      'MRR2' (0x4d525232)
//   fixed32  index      the want's position within its batch request
//   byte     status     FetchStatus
//   fixed32  generation generation actually served
//   fixed64  raw_len    decompressed partition length (bookkeeping only)
//   fixed32  partition_crc  CRC32C of the partition wire bytes
//   fixed64  records    record count in the partition
//   byte     encoding   FetchEncoding of the body
//   fixed64  body_len   body bytes that follow
//
// Body encodings:
//   kPartitionBytes — the partition's sealed wire bytes verbatim (what
//     SpillSegment::PartitionSlices / StoredSpill::ReadPartition return).
//     Served zero-copy from RAM-resident segments via writev.
//   kFrameStream — the partition's extent byte range verbatim: a sequence
//     of [fixed32 frame_len][block-codec frame] records exactly as the
//     durable spill file stores them. Served zero-copy from disk via
//     sendfile/pread; the client reassembles (and CRC-verifies) each
//     frame with BlockDecompress, so the server never re-frames or
//     re-checksums on the hot path.

#ifndef MRMB_RPC_SHUFFLE_WIRE_H_
#define MRMB_RPC_SHUFFLE_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace mrmb {

inline constexpr uint32_t kShuffleBatchRequestMagic = 0x4d524632;  // 'MRF2'
inline constexpr uint32_t kShuffleBatchEntryMagic = 0x4d525232;    // 'MRR2'
inline constexpr size_t kShuffleBatchRequestHeadSize = 20;
inline constexpr size_t kShuffleBatchWantSize = 12;
inline constexpr size_t kShuffleBatchEntryHeaderSize = 42;
// Upper bound on wants per batch request: big enough that any realistic
// in-flight window fits one message, small enough that a corrupt count
// field can't make the server reserve gigabytes.
inline constexpr uint32_t kShuffleBatchMaxWants = 4096;

enum class FetchStatus : uint8_t {
  kOk = 0,
  // The requested generation is older (or newer) than the registered map
  // output: the map was re-executed and the client must re-resolve.
  kStaleGeneration = 1,
  // No committed output registered for (map, partition) yet.
  kNotFound = 2,
  // Server-side failure reading the output (e.g. extent I/O error).
  kError = 3,
  // The registration exists at the requested generation but its backing
  // bytes are gone (extent unreadable): the output is lost and the client
  // should trigger re-execution. In a batch response this marks only the
  // affected entry; the rest of the batch still serves.
  kDataLoss = 4,
};

const char* FetchStatusName(FetchStatus status);

enum class FetchEncoding : uint8_t {
  kPartitionBytes = 0,
  kFrameStream = 1,
};

// One (map, partition, generation) the client wants served.
struct ShuffleFetchWant {
  int map = 0;
  int partition = 0;
  uint32_t generation = 0;
};

struct ShuffleBatchRequestHead {
  uint64_t job_digest = 0;
  uint32_t count = 0;
};

// Per-entry response header: the want's batch position, the serve status
// and generation, and the partition's bookkeeping and body framing.
struct ShuffleBatchEntryHeader {
  uint32_t index = 0;
  FetchStatus status = FetchStatus::kOk;
  uint32_t generation = 0;
  int64_t raw_len = 0;
  uint32_t partition_crc = 0;
  int64_t records = 0;
  FetchEncoding encoding = FetchEncoding::kPartitionBytes;
  int64_t body_len = 0;
};

// Appends the full batch request — 20-byte head plus 12 bytes per want —
// to `out`. Wants beyond kShuffleBatchMaxWants must be split by the
// caller.
void EncodeShuffleBatchRequest(uint64_t job_digest,
                               const ShuffleFetchWant* wants, size_t count,
                               std::string* out);
// Decodes the fixed 20-byte head. InvalidArgument on bad magic/size,
// nonzero reserved flags, or a count outside [1, kShuffleBatchMaxWants].
Status DecodeShuffleBatchRequestHead(std::string_view data,
                                     ShuffleBatchRequestHead* head);
// Decodes exactly `count` 12-byte wants (data must be count * 12 bytes).
Status DecodeShuffleBatchWants(std::string_view data, uint32_t count,
                               std::vector<ShuffleFetchWant>* wants);

// Appends the 42-byte batch entry header to `out`.
void EncodeShuffleBatchEntryHeader(const ShuffleBatchEntryHeader& header,
                                   std::string* out);
// Decodes a full 42-byte batch entry header buffer.
Status DecodeShuffleBatchEntryHeader(std::string_view data,
                                     ShuffleBatchEntryHeader* header);

// Reassembles a kFrameStream body — [fixed32 frame_len][frame]* — into the
// partition's wire bytes by decoding each self-describing block-codec
// frame (BlockDecompress verifies the per-frame CRC32C). Returns
// InvalidArgument on a torn length prefix or structural frame corruption
// and DataLoss on a frame CRC mismatch.
Status ReassembleFrameStream(std::string_view body, std::string* wire_bytes);

}  // namespace mrmb

#endif  // MRMB_RPC_SHUFFLE_WIRE_H_

// Tests for the real-socket shuffle transport: wire-format round trips and
// torn-buffer rejection, direct server/client protocol behaviour (stale
// generations, unknown maps, dead ports, foreign jobs, garbage requests),
// end-to-end golden-fingerprint
// parity between the inproc and tcp data planes across codecs, thread
// counts and spill modes, and recovery from every injected transport fault
// (drop_conn, trunc_frame, slow_peer).

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "io/block_codec.h"
#include "io/byte_buffer.h"
#include "io/checksum.h"
#include "mapred/fault_injector.h"
#include "mapred/local_runner.h"
#include "mapred/null_formats.h"
#include "net/shuffle_transport.h"
#include "rpc/shuffle_wire.h"

namespace mrmb {
namespace {

// ---- Wire format ----------------------------------------------------------

TEST(ShuffleWireTest, FrameStreamReassemblesAndRejectsTornPrefix) {
  // Two frames of known bytes, exactly as an extent stores them.
  const std::string part1(1000, 'a');
  const std::string part2 = "tail-bytes";
  std::string body;
  for (const std::string& part : {part1, part2}) {
    std::string frame;
    ASSERT_TRUE(BlockCompress(MapOutputCodec::kLz4, part, &frame).ok());
    BufferWriter prefix;
    prefix.AppendFixed32(static_cast<uint32_t>(frame.size()));
    body += prefix.data();
    body += frame;
  }

  std::string wire;
  ASSERT_TRUE(ReassembleFrameStream(body, &wire).ok());
  EXPECT_EQ(wire, part1 + part2);

  // A torn length prefix (any truncation point) must fail, not crash or
  // silently return a prefix.
  for (const size_t cut : {body.size() - 1, body.size() - 7, size_t{3}}) {
    std::string torn = body.substr(0, cut);
    EXPECT_FALSE(ReassembleFrameStream(torn, &wire).ok()) << "cut=" << cut;
  }
  // A flipped bit inside a frame is a CRC mismatch.
  std::string corrupt = body;
  corrupt[8] ^= 0x10;
  const Status status = ReassembleFrameStream(corrupt, &wire);
  EXPECT_FALSE(status.ok());
}

TEST(ShuffleWireTest, BatchRequestRoundTrips) {
  std::vector<ShuffleFetchWant> wants;
  for (int i = 0; i < 5; ++i) {
    ShuffleFetchWant want;
    want.map = i * 3;
    want.partition = i;
    want.generation = static_cast<uint32_t>(100 + i);
    wants.push_back(want);
  }
  std::string wire;
  EncodeShuffleBatchRequest(0xFEEDFACE12345678ull, wants.data(), wants.size(),
                            &wire);
  ASSERT_EQ(wire.size(),
            kShuffleBatchRequestHeadSize + wants.size() * kShuffleBatchWantSize);

  ShuffleBatchRequestHead head;
  ASSERT_TRUE(DecodeShuffleBatchRequestHead(
                  std::string_view(wire.data(), kShuffleBatchRequestHeadSize),
                  &head)
                  .ok());
  EXPECT_EQ(head.job_digest, 0xFEEDFACE12345678ull);
  EXPECT_EQ(head.count, wants.size());

  std::vector<ShuffleFetchWant> decoded;
  ASSERT_TRUE(DecodeShuffleBatchWants(
                  std::string_view(wire.data() + kShuffleBatchRequestHeadSize,
                                   wire.size() - kShuffleBatchRequestHeadSize),
                  head.count, &decoded)
                  .ok());
  ASSERT_EQ(decoded.size(), wants.size());
  for (size_t i = 0; i < wants.size(); ++i) {
    EXPECT_EQ(decoded[i].map, wants[i].map) << i;
    EXPECT_EQ(decoded[i].partition, wants[i].partition) << i;
    EXPECT_EQ(decoded[i].generation, wants[i].generation) << i;
  }
}

TEST(ShuffleWireTest, BatchRequestRejectsTornAndCorrupt) {
  ShuffleFetchWant want;
  want.map = 1;
  want.partition = 2;
  want.generation = 3;
  std::string wire;
  EncodeShuffleBatchRequest(77, &want, 1, &wire);
  const std::string_view head_view(wire.data(), kShuffleBatchRequestHeadSize);

  ShuffleBatchRequestHead head;
  // Every truncated head length must fail cleanly.
  for (size_t len = 0; len < kShuffleBatchRequestHeadSize; ++len) {
    EXPECT_FALSE(DecodeShuffleBatchRequestHead(
                     std::string_view(wire.data(), len), &head)
                     .ok())
        << "len=" << len;
  }
  ASSERT_TRUE(DecodeShuffleBatchRequestHead(head_view, &head).ok());
  // Bad magic.
  std::string bad(head_view);
  bad[0] ^= 0x01;
  EXPECT_FALSE(DecodeShuffleBatchRequestHead(bad, &head).ok());
  // Nonzero reserved flags (bytes after the count).
  bad = std::string(head_view);
  bad[kShuffleBatchRequestHeadSize - 1] = 1;
  EXPECT_FALSE(DecodeShuffleBatchRequestHead(bad, &head).ok());
  // A zero count and a count past the cap are both protocol errors; the
  // count lives right after the 8-byte digest at offset 12.
  bad = std::string(head_view);
  bad[12] = bad[13] = bad[14] = bad[15] = 0;
  EXPECT_FALSE(DecodeShuffleBatchRequestHead(bad, &head).ok());
  bad[12] = 0x7F;  // count = 0x7F000000, far past kShuffleBatchMaxWants
  EXPECT_FALSE(DecodeShuffleBatchRequestHead(bad, &head).ok());

  // The wants block must be exactly count * 12 bytes: every truncation
  // (and one trailing byte) fails.
  const std::string_view wants_view(wire.data() + kShuffleBatchRequestHeadSize,
                                    kShuffleBatchWantSize);
  std::vector<ShuffleFetchWant> decoded;
  for (size_t len = 0; len < kShuffleBatchWantSize; ++len) {
    EXPECT_FALSE(DecodeShuffleBatchWants(
                     std::string_view(wants_view.data(), len), 1, &decoded)
                     .ok())
        << "len=" << len;
  }
  std::string over(wants_view);
  over.push_back('x');
  EXPECT_FALSE(DecodeShuffleBatchWants(over, 1, &decoded).ok());
}

TEST(ShuffleWireTest, BatchEntryHeaderRoundTripsAndRejectsCorrupt) {
  ShuffleBatchEntryHeader header;
  header.index = 17;
  header.status = FetchStatus::kDataLoss;
  header.generation = 9;
  header.raw_len = 1234567;
  header.partition_crc = 0x5A5A5A5A;
  header.records = 99;
  header.encoding = FetchEncoding::kFrameStream;
  header.body_len = 7654321;
  std::string wire;
  EncodeShuffleBatchEntryHeader(header, &wire);
  ASSERT_EQ(wire.size(), kShuffleBatchEntryHeaderSize);

  ShuffleBatchEntryHeader decoded;
  ASSERT_TRUE(DecodeShuffleBatchEntryHeader(wire, &decoded).ok());
  EXPECT_EQ(decoded.index, header.index);
  EXPECT_EQ(decoded.status, header.status);
  EXPECT_EQ(decoded.generation, header.generation);
  EXPECT_EQ(decoded.raw_len, header.raw_len);
  EXPECT_EQ(decoded.partition_crc, header.partition_crc);
  EXPECT_EQ(decoded.records, header.records);
  EXPECT_EQ(decoded.encoding, header.encoding);
  EXPECT_EQ(decoded.body_len, header.body_len);

  // Every truncation length fails cleanly.
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(DecodeShuffleBatchEntryHeader(
                     std::string_view(wire.data(), len), &decoded)
                     .ok())
        << "len=" << len;
  }
  // Bad magic.
  std::string bad = wire;
  bad[0] ^= 0x20;
  EXPECT_FALSE(DecodeShuffleBatchEntryHeader(bad, &decoded).ok());
}

// Deterministic fuzz over the batched framing: pure garbage and bit-flipped
// valid buffers through every decoder. The decoders must never crash,
// and whatever they accept must carry in-bounds enum/count values.
TEST(ShuffleWireTest, BatchFramingFuzzSurvivesGarbageAndBitFlips) {
  Rng rng(0xF422);
  ShuffleFetchWant want;
  want.map = 3;
  want.partition = 1;
  want.generation = 8;
  std::string request;
  EncodeShuffleBatchRequest(1234, &want, 1, &request);
  ShuffleBatchEntryHeader entry;
  entry.index = 1;
  entry.body_len = 64;
  std::string entry_wire;
  EncodeShuffleBatchEntryHeader(entry, &entry_wire);

  for (int i = 0; i < 2000; ++i) {
    std::string garbage(rng.Uniform(64), '\0');
    rng.Fill(garbage.data(), garbage.size());
    ShuffleBatchRequestHead head;
    if (DecodeShuffleBatchRequestHead(garbage, &head).ok()) {
      EXPECT_GE(head.count, 1u);
      EXPECT_LE(head.count, kShuffleBatchMaxWants);
    }
    std::vector<ShuffleFetchWant> wants;
    (void)DecodeShuffleBatchWants(garbage, 1, &wants);
    ShuffleBatchEntryHeader decoded;
    if (DecodeShuffleBatchEntryHeader(garbage, &decoded).ok()) {
      EXPECT_LE(static_cast<uint8_t>(decoded.status),
                static_cast<uint8_t>(FetchStatus::kDataLoss));
      EXPECT_LT(decoded.index, kShuffleBatchMaxWants);
    }

    // Single-bit flips of valid frames: either rejected or decoded with
    // in-bounds fields — never a crash or a wild value.
    std::string flipped = request;
    flipped[rng.Uniform(flipped.size())] ^= 1 << rng.Uniform(8);
    if (DecodeShuffleBatchRequestHead(
            std::string_view(flipped.data(), kShuffleBatchRequestHeadSize),
            &head)
            .ok()) {
      EXPECT_GE(head.count, 1u);
      EXPECT_LE(head.count, kShuffleBatchMaxWants);
    }
    flipped = entry_wire;
    flipped[rng.Uniform(flipped.size())] ^= 1 << rng.Uniform(8);
    if (DecodeShuffleBatchEntryHeader(flipped, &decoded).ok()) {
      EXPECT_LE(static_cast<uint8_t>(decoded.status),
                static_cast<uint8_t>(FetchStatus::kDataLoss));
      EXPECT_LE(static_cast<uint8_t>(decoded.encoding),
                static_cast<uint8_t>(FetchEncoding::kFrameStream));
      EXPECT_LT(decoded.index, kShuffleBatchMaxWants);
    }
  }
}

// ---- Direct server/client protocol ---------------------------------------

std::shared_ptr<SpillSegment> MakeSealedSegment(const std::string& payload) {
  auto segment = std::make_shared<SpillSegment>();
  segment->data = payload;
  SpillSegment::PartitionRange range;
  range.offset = 0;
  range.length = static_cast<int64_t>(payload.size());
  range.records = 1;
  segment->partitions.push_back(range);
  SealSegment(segment.get());
  return segment;
}

// A client for `server` speaking for job `digest`.
ShuffleTransportClient::Options ClientOptions(
    const ShuffleTransportServer& server, uint64_t digest) {
  ShuffleTransportClient::Options copts;
  copts.job_digest = digest;
  copts.port = server.port();
  return copts;
}

// Fetches one want through a one-want batch (FetchBatch always returns one
// result per want).
ShuffleFetchResult FetchOne(ShuffleTransportClient* client, int map,
                            int partition, uint32_t generation) {
  return std::move(client->FetchBatch({{map, partition, generation}})[0]);
}

TEST(ShuffleTransportTest, ServesPublishedSegmentAndRefusesStaleGeneration) {
  ShuffleTransportServer::Options sopts;
  sopts.job_digest = 42;
  auto server = ShuffleTransportServer::Start(sopts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const std::string payload = "the quick brown fox";
  (*server)->Publish(/*map=*/0, /*generation=*/3, MakeSealedSegment(payload),
                     nullptr);
  ShuffleTransportClient client(ClientOptions(**server, 42));

  const ShuffleFetchResult ok = FetchOne(&client, 0, 0, 3);
  EXPECT_TRUE(ok.transport_ok);
  EXPECT_EQ(ok.status, FetchStatus::kOk);
  EXPECT_EQ(ok.body, payload);
  EXPECT_EQ(ok.encoding, FetchEncoding::kPartitionBytes);
  EXPECT_EQ(ok.partition_crc, Crc32c(payload));
  EXPECT_EQ(ok.records, 1);

  // Both an older and a newer generation are refused as stale, and the
  // refusal carries the live generation so the client can re-resolve.
  for (const uint32_t gen : {2u, 4u}) {
    const ShuffleFetchResult stale = FetchOne(&client, 0, 0, gen);
    EXPECT_TRUE(stale.transport_ok);
    EXPECT_EQ(stale.status, FetchStatus::kStaleGeneration) << "gen=" << gen;
    EXPECT_EQ(stale.generation, 3u);
    EXPECT_TRUE(stale.body.empty());
  }

  // An unpublished map is a clean kNotFound.
  EXPECT_EQ(FetchOne(&client, 9, 0, 0).status, FetchStatus::kNotFound);

  const ShuffleServerStats stats = (*server)->stats();
  EXPECT_EQ(stats.ram_serves, 1);
  EXPECT_EQ(stats.stale_refused, 2);
  EXPECT_EQ(stats.not_found, 1);
}

TEST(ShuffleTransportTest, RepublishReplacesGeneration) {
  ShuffleTransportServer::Options sopts;
  sopts.job_digest = 7;
  auto server = ShuffleTransportServer::Start(sopts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  (*server)->Publish(0, 0, MakeSealedSegment("old bytes"), nullptr);
  (*server)->Publish(0, 1, MakeSealedSegment("new bytes"), nullptr);
  ShuffleTransportClient client(ClientOptions(**server, 7));

  EXPECT_EQ(FetchOne(&client, 0, 0, 0).status,
            FetchStatus::kStaleGeneration);
  const ShuffleFetchResult fresh = FetchOne(&client, 0, 0, 1);
  EXPECT_EQ(fresh.status, FetchStatus::kOk);
  EXPECT_EQ(fresh.body, "new bytes");
}

TEST(ShuffleTransportTest, DeadPortSurfacesAsIOError) {
  // Bind-then-close to get a port nobody is listening on.
  ShuffleTransportServer::Options sopts;
  auto server = ShuffleTransportServer::Start(sopts);
  ASSERT_TRUE(server.ok());
  ShuffleTransportClient::Options copts = ClientOptions(**server, 0);
  server->reset();

  // Every want uses up its attempts on failed dials and comes back lost.
  copts.max_attempts = 3;
  ShuffleTransportClient client(copts);
  const std::vector<ShuffleFetchResult> got =
      client.FetchBatch({{0, 0, 0}, {1, 0, 0}});
  ASSERT_EQ(got.size(), 2u);
  for (const ShuffleFetchResult& r : got) EXPECT_FALSE(r.transport_ok);
  const ShuffleClientStats stats = client.stats();
  EXPECT_EQ(stats.rpcs, 0);
  EXPECT_EQ(stats.fetches, 0);
  EXPECT_EQ(stats.retransmits, 2 * (copts.max_attempts - 1));
  EXPECT_EQ(stats.reconnects, 0);
}

TEST(ShuffleTransportTest, ServerSideFaultHookDropsAndTruncates) {
  ShuffleTransportServer::Options sopts;
  sopts.job_digest = 9;
  // First fetch of map 0 drops the connection; second fetch of map 0 sends
  // a torn body; everything afterwards is clean.
  sopts.fault_hook = [](int map, int64_t fetch_seq) {
    if (map == 0 && fetch_seq == 0) return TransportFault::kDropConn;
    if (map == 0 && fetch_seq == 1) return TransportFault::kTruncFrame;
    return TransportFault::kNone;
  };
  auto server = ShuffleTransportServer::Start(sopts);
  ASSERT_TRUE(server.ok());
  const std::string payload(4096, 'z');
  (*server)->Publish(0, 0, MakeSealedSegment(payload), nullptr);
  ShuffleTransportClient::Options copts = ClientOptions(**server, 9);
  copts.max_attempts = 3;
  ShuffleTransportClient client(copts);

  // Both injected faults kill the connection; the third attempt (fetch_seq
  // 2) succeeds, and each death is followed by one resume elsewhere.
  const ShuffleFetchResult third = FetchOne(&client, 0, 0, 0);
  EXPECT_TRUE(third.transport_ok);
  EXPECT_EQ(third.status, FetchStatus::kOk);
  EXPECT_EQ(third.body, payload);
  EXPECT_EQ((*server)->stats().faults_injected, 2);
  const ShuffleClientStats stats = client.stats();
  EXPECT_EQ(stats.retransmits, 2);
  EXPECT_EQ(stats.reconnects, 2);
}

// A request from another job's client is refused per entry with kError,
// never served.
TEST(ShuffleTransportTest, JobDigestMismatchIsAnErrorPerEntry) {
  ShuffleTransportServer::Options sopts;
  sopts.job_digest = 31;
  auto server = ShuffleTransportServer::Start(sopts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  (*server)->Publish(0, 1, MakeSealedSegment("job 31 bytes"), nullptr);
  (*server)->Publish(1, 1, MakeSealedSegment("more bytes"), nullptr);
  ShuffleTransportClient client(ClientOptions(**server, 32));

  const std::vector<ShuffleFetchResult> got =
      client.FetchBatch({{0, 0, 1}, {1, 0, 1}, {5, 0, 0}});
  ASSERT_EQ(got.size(), 3u);
  for (const ShuffleFetchResult& r : got) {
    EXPECT_TRUE(r.transport_ok);
    EXPECT_EQ(r.status, FetchStatus::kError);
    EXPECT_TRUE(r.body.empty());
  }
  const ShuffleServerStats stats = (*server)->stats();
  EXPECT_EQ(stats.fetches_served, 3);
  EXPECT_EQ(stats.ram_serves, 0);
  EXPECT_EQ(stats.not_found, 0);
}

// Sends `request` on a fresh connection to `port` and reports whether the
// server closed it: a read returns end-of-stream or a reset before any
// response byte arrives.
bool ServerDropsRequest(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  bool dropped = false;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(request.size())) {
    char byte;
    const ssize_t n = ::recv(fd, &byte, 1, 0);
    dropped = n == 0 || (n < 0 && errno == ECONNRESET);
  }
  ::close(fd);
  return dropped;
}

// A single-fetch 'MRSF' request is protocol garbage to the one batch
// protocol: the server drops that connection and keeps serving batches on
// its other connections.
TEST(ShuffleTransportTest, SingleFetchRequestIsGarbageAndOnlyItsConnDies) {
  ShuffleTransportServer::Options sopts;
  sopts.job_digest = 33;
  auto server = ShuffleTransportServer::Start(sopts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  (*server)->Publish(0, 1, MakeSealedSegment("still served"), nullptr);
  ShuffleTransportClient::Options copts = ClientOptions(**server, 33);
  copts.parallel_streams = 1;
  ShuffleTransportClient client(copts);
  // Open the client's pooled connection before the garbage arrives.
  EXPECT_EQ(FetchOne(&client, 0, 0, 1).status, FetchStatus::kOk);

  // 'MRSF' + digest + map + partition + generation + flags: 28 bytes.
  BufferWriter request;
  request.AppendFixed32(0x4d525346);
  request.AppendFixed64(33);
  for (int field = 0; field < 4; ++field) request.AppendFixed32(0);
  ASSERT_EQ(request.data().size(), 28u);
  EXPECT_TRUE(ServerDropsRequest((*server)->port(), request.data()));

  const ShuffleFetchResult after = FetchOne(&client, 0, 0, 1);
  EXPECT_TRUE(after.transport_ok);
  EXPECT_EQ(after.status, FetchStatus::kOk);
  EXPECT_EQ(after.body, "still served");
  const ShuffleClientStats stats = client.stats();
  EXPECT_EQ(stats.connections, 1);
  EXPECT_EQ(stats.retransmits, 0);
  EXPECT_EQ((*server)->stats().batch_requests, 2);
}

// ---- Direct server/client protocol: batched fetch -------------------------

TEST(ShuffleTransportTest, BatchFetchMixedStatusesInOneRpc) {
  ShuffleTransportServer::Options sopts;
  sopts.job_digest = 21;
  auto server = ShuffleTransportServer::Start(sopts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const std::string body0 = "alpha-partition-bytes";
  (*server)->Publish(0, /*generation=*/3, MakeSealedSegment(body0), nullptr);
  (*server)->Publish(1, /*generation=*/5, MakeSealedSegment("beta"), nullptr);
  // Map 3 is published with no backing segment at all: data loss.
  (*server)->Publish(3, 0, nullptr, nullptr);

  ShuffleTransportClient::Options copts;
  copts.job_digest = 21;
  copts.port = (*server)->port();
  copts.parallel_streams = 1;
  copts.window_init = 8;  // wider than the batch: all wants in one RPC
  ShuffleTransportClient client(copts);

  // One batch mixing every protocol status: two clean serves of the same
  // partition, a stale generation, an unknown map, and a lost segment.
  std::vector<ShuffleFetchWant> wants(5);
  wants[0] = {0, 0, 3};
  wants[1] = {1, 0, 4};  // server holds generation 5 -> stale
  wants[2] = {7, 0, 0};  // never published -> not found
  wants[3] = {3, 0, 0};  // published without bytes -> data loss
  wants[4] = {0, 0, 3};  // repeat of want 0, still served

  const std::vector<ShuffleFetchResult> got = client.FetchBatch(wants);
  ASSERT_EQ(got.size(), wants.size());
  for (const ShuffleFetchResult& r : got) EXPECT_TRUE(r.transport_ok);
  EXPECT_EQ(got[0].status, FetchStatus::kOk);
  EXPECT_EQ(got[0].body, body0);
  EXPECT_EQ(got[0].partition_crc, Crc32c(body0));
  EXPECT_EQ(got[1].status, FetchStatus::kStaleGeneration);
  EXPECT_EQ(got[1].generation, 5u);
  EXPECT_TRUE(got[1].body.empty());
  EXPECT_EQ(got[2].status, FetchStatus::kNotFound);
  EXPECT_EQ(got[3].status, FetchStatus::kDataLoss);
  EXPECT_EQ(got[4].status, FetchStatus::kOk);
  EXPECT_EQ(got[4].body, body0);

  // All five entries rode a single batch RPC.
  const ShuffleClientStats cstats = client.stats();
  EXPECT_EQ(cstats.fetches, 5);
  EXPECT_EQ(cstats.rpcs, 1);
  const ShuffleServerStats sstats = (*server)->stats();
  EXPECT_EQ(sstats.batch_requests, 1);
  EXPECT_EQ(sstats.ram_serves, 2);
  EXPECT_EQ(sstats.stale_refused, 1);
  EXPECT_EQ(sstats.not_found, 1);
  EXPECT_EQ(sstats.data_loss, 1);
}

TEST(ShuffleTransportTest, BatchWindowPipelinesAndGrows) {
  ShuffleTransportServer::Options sopts;
  sopts.job_digest = 22;
  auto server = ShuffleTransportServer::Start(sopts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  for (int map = 0; map < 64; ++map) {
    (*server)->Publish(map, 1,
                       MakeSealedSegment("map-" + std::to_string(map)), nullptr);
  }

  ShuffleTransportClient::Options copts;
  copts.job_digest = 22;
  copts.port = (*server)->port();
  copts.parallel_streams = 1;
  copts.window_init = 2;
  copts.window_max = 8;
  ShuffleTransportClient client(copts);

  std::vector<ShuffleFetchWant> wants;
  for (int map = 0; map < 64; ++map) {
    wants.push_back({map, 0, 1});
  }
  const std::vector<ShuffleFetchResult> got = client.FetchBatch(wants);
  ASSERT_EQ(got.size(), wants.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].status, FetchStatus::kOk) << i;
    EXPECT_EQ(got[i].body, "map-" + std::to_string(i)) << i;
  }

  // Clean responses grow the window to its cap, and pipelining means far
  // fewer RPCs than entries — but more than one, since the window starts
  // below the want count.
  const ShuffleClientStats stats = client.stats();
  EXPECT_EQ(stats.fetches, 64);
  EXPECT_EQ(stats.window_peak, 8);
  EXPECT_GT(stats.rpcs, 1);
  EXPECT_LT(stats.rpcs, 64);
  EXPECT_EQ(stats.retransmits, 0);
}

TEST(ShuffleTransportTest, BatchDropConnRecovers) {
  ShuffleTransportServer::Options sopts;
  sopts.job_digest = 25;
  sopts.fault_hook = [](int map, int64_t fetch_seq) {
    if (map == 0 && fetch_seq == 0) return TransportFault::kDropConn;
    return TransportFault::kNone;
  };
  auto server = ShuffleTransportServer::Start(sopts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  for (int map = 0; map < 8; ++map) {
    (*server)->Publish(map, 1, MakeSealedSegment(std::string(2048, 'd')),
                       nullptr);
  }

  ShuffleTransportClient::Options copts;
  copts.job_digest = 25;
  copts.port = (*server)->port();
  copts.parallel_streams = 1;
  ShuffleTransportClient client(copts);

  std::vector<ShuffleFetchWant> wants;
  for (int map = 0; map < 8; ++map) wants.push_back({map, 0, 1});
  const std::vector<ShuffleFetchResult> got = client.FetchBatch(wants);
  ASSERT_EQ(got.size(), wants.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i].transport_ok) << i;
    EXPECT_EQ(got[i].status, FetchStatus::kOk) << i;
    EXPECT_EQ(got[i].body.size(), 2048u) << i;
  }
  EXPECT_EQ((*server)->stats().faults_injected, 1);
  EXPECT_GE(client.stats().retransmits, 1);
  EXPECT_EQ(client.stats().reconnects, 1);
}

TEST(ShuffleTransportTest, BatchTruncFrameRecovers) {
  ShuffleTransportServer::Options sopts;
  sopts.job_digest = 26;
  sopts.fault_hook = [](int map, int64_t fetch_seq) {
    if (map == 2 && fetch_seq == 0) return TransportFault::kTruncFrame;
    return TransportFault::kNone;
  };
  auto server = ShuffleTransportServer::Start(sopts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  for (int map = 0; map < 8; ++map) {
    (*server)->Publish(map, 1, MakeSealedSegment(std::string(4096, 't')),
                       nullptr);
  }

  ShuffleTransportClient::Options copts;
  copts.job_digest = 26;
  copts.port = (*server)->port();
  copts.parallel_streams = 1;
  ShuffleTransportClient client(copts);

  std::vector<ShuffleFetchWant> wants;
  for (int map = 0; map < 8; ++map) wants.push_back({map, 0, 1});
  const std::vector<ShuffleFetchResult> got = client.FetchBatch(wants);
  ASSERT_EQ(got.size(), wants.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i].transport_ok) << i;
    EXPECT_EQ(got[i].status, FetchStatus::kOk) << i;
    EXPECT_EQ(got[i].body.size(), 4096u) << i;
  }
  EXPECT_EQ((*server)->stats().faults_injected, 1);
  EXPECT_GE(client.stats().retransmits, 1);
}

TEST(ShuffleTransportTest, BufferPoolReusesRecycledBodies) {
  ShuffleTransportServer::Options sopts;
  sopts.job_digest = 27;
  auto server = ShuffleTransportServer::Start(sopts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  for (int map = 0; map < 4; ++map) {
    (*server)->Publish(map, 1, MakeSealedSegment(std::string(8192, 'p')),
                       nullptr);
  }

  ShuffleTransportClient::Options copts;
  copts.job_digest = 27;
  copts.port = (*server)->port();
  copts.parallel_streams = 1;
  ShuffleTransportClient client(copts);

  std::vector<ShuffleFetchWant> wants;
  for (int map = 0; map < 4; ++map) wants.push_back({map, 0, 1});

  std::vector<ShuffleFetchResult> got = client.FetchBatch(wants);
  ASSERT_EQ(got.size(), wants.size());
  for (ShuffleFetchResult& r : got) {
    ASSERT_EQ(r.status, FetchStatus::kOk);
    client.RecycleBuffer(std::move(r.body));
  }
  // The second batch draws its body buffers from the pool.
  got = client.FetchBatch(wants);
  for (const ShuffleFetchResult& r : got) {
    EXPECT_EQ(r.status, FetchStatus::kOk);
    EXPECT_EQ(r.body.size(), 8192u);
  }
  const ShuffleClientStats stats = client.stats();
  EXPECT_GE(stats.pool_hits, 1);
  EXPECT_GT(stats.pool_hit_rate, 0.0);
}

// ---- End-to-end golden parity ---------------------------------------------
// Job material mirrors local_runner_spill_test.cc: the fingerprint covers
// every output byte, so "same fingerprint" means "same bytes".

std::string RandomPayload(Rng* rng, size_t min_len, size_t max_len) {
  const size_t len =
      min_len + static_cast<size_t>(rng->Uniform(max_len - min_len + 1));
  std::string payload(len, '\0');
  for (char& c : payload) {
    c = static_cast<char>(rng->Uniform(256));
  }
  return payload;
}

std::string WireBytes(const std::string& payload) {
  BufferWriter writer;
  BytesWritable(payload).Serialize(&writer);
  return writer.data();
}

std::string WireText(const std::string& payload) {
  BufferWriter writer;
  Text(payload).Serialize(&writer);
  return writer.data();
}

class GoldenMapper final : public Mapper {
 public:
  explicit GoldenMapper(int task_id) : task_id_(task_id) {}

  void Map(std::string_view, std::string_view, MapContext* context) override {
    Rng rng(0xF007 + static_cast<uint64_t>(task_id_) * 131);
    for (int i = 0; i < 3000; ++i) {
      const uint64_t id = rng.Uniform(64);
      const std::string key =
          WireText("shared-prefix-key-" + std::to_string(id));
      const std::string value = WireBytes(RandomPayload(&rng, 0, 12));
      context->Emit(key, value);
    }
  }

 private:
  int task_id_;
};

class FingerprintReducer final : public Reducer {
 public:
  void Reduce(std::string_view key, ValueIterator* values,
              ReduceContext* context) override {
    int64_t count = 0;
    uint64_t byte_sum = 0;
    while (values->Next()) {
      ++count;
      for (const char c : values->value()) {
        byte_sum += static_cast<uint8_t>(c);
      }
    }
    BufferWriter writer;
    writer.AppendFixed64(static_cast<uint64_t>(count));
    writer.AppendFixed64(byte_sum);
    context->Emit(key, writer.data());
  }
};

class CapturingOutputFormat final : public OutputFormat {
 public:
  std::unique_ptr<RecordWriter> CreateWriter(const JobConf&,
                                             int task_id) override {
    class Writer final : public RecordWriter {
     public:
      explicit Writer(std::string* out) : writer_(out) {}
      void Write(std::string_view key, std::string_view value) override {
        writer_.AppendVarint64(static_cast<int64_t>(key.size()));
        writer_.AppendVarint64(static_cast<int64_t>(value.size()));
        writer_.AppendRaw(key);
        writer_.AppendRaw(value);
      }
      Status Close() override { return Status::OK(); }

     private:
      BufferWriter writer_;
    };
    return std::make_unique<Writer>(&streams_[task_id]);
  }

  uint32_t Fingerprint() const {
    uint32_t crc = kCrc32cInit;
    for (const auto& [reducer, stream] : streams_) {
      BufferWriter writer;
      writer.AppendFixed32(static_cast<uint32_t>(reducer));
      crc = Crc32c(crc, writer.data());
      crc = Crc32c(crc, stream);
    }
    return crc;
  }

 private:
  std::map<int, std::string> streams_;
};

JobConf BaseConf() {
  JobConf conf;
  conf.num_maps = 4;
  conf.num_reduces = 3;
  conf.record.type = DataType::kText;
  conf.io_sort_bytes = 64 * 1024;
  conf.spill_percent = 1.0;
  conf.local_threads = 2;
  conf.sort_threads = 1;
  conf.seed = 42;
  return conf;
}

JobConf WithPlan(JobConf conf, const std::string& spec) {
  auto plan = LocalFaultPlan::Parse(spec);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  conf.local_fault_plan = *plan;
  return conf;
}

struct JobOutcome {
  uint32_t fingerprint = 0;
  LocalJobResult result;
};

JobOutcome RunGoldenJob(const JobConf& conf) {
  LocalJobRunner runner(conf);
  NullInputFormat input;
  CapturingOutputFormat output;
  auto result = runner.Run(
      &input, [](int task) { return std::make_unique<GoldenMapper>(task); },
      [](int) { return std::make_unique<FingerprintReducer>(); }, &output);
  JobOutcome outcome;
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok()) outcome.result = *result;
  outcome.fingerprint = output.Fingerprint();
  return outcome;
}

uint32_t InprocFingerprint() {
  static const uint32_t fingerprint = [] {
    const JobOutcome outcome = RunGoldenJob(BaseConf());
    EXPECT_FALSE(outcome.result.transport_enabled);
    return outcome.fingerprint;
  }();
  return fingerprint;
}

JobConf TcpConf() {
  JobConf conf = BaseConf();
  conf.shuffle_transport = ShuffleTransport::kTcp;
  return conf;
}

TEST(ShuffleTransportJobTest, TcpJobMatchesInprocFingerprint) {
  const JobOutcome tcp = RunGoldenJob(TcpConf());
  EXPECT_EQ(tcp.fingerprint, InprocFingerprint());
  EXPECT_TRUE(tcp.result.transport_enabled);
  // 4 maps x 3 reduces, every partition over the wire exactly once, in at
  // most one request per partition (fewer when a drain batches).
  EXPECT_EQ(tcp.result.transport_fetched_partitions, 12);
  EXPECT_GE(tcp.result.transport_fetch_rpcs, 3);
  EXPECT_LE(tcp.result.transport_fetch_rpcs, 12);
  EXPECT_EQ(tcp.result.transport_retransmits, 0);
  EXPECT_EQ(tcp.result.transport_ram_serves, 12);
  EXPECT_EQ(tcp.result.transport_file_serves, 0);
  EXPECT_GT(tcp.result.transport_wire_bytes, 0);
  EXPECT_GT(tcp.result.crc_verifications, 0);
}

TEST(ShuffleTransportJobTest, TcpV2BatchedJobMatchesInprocFingerprint) {
  JobConf conf = TcpConf();
  conf.reduce_slowstart = 1.0;  // full map barrier: all wants queue at once
  conf.fetch_window_init = 32;
  conf.fetch_window_max = 32;
  const JobOutcome tcp = RunGoldenJob(conf);
  EXPECT_EQ(tcp.fingerprint, InprocFingerprint());
  EXPECT_TRUE(tcp.result.transport_enabled);
  // Same 12 partitions, but batching collapses them to one RPC per reduce.
  EXPECT_EQ(tcp.result.transport_fetched_partitions, 12);
  EXPECT_EQ(tcp.result.transport_fetch_rpcs, 3);
  EXPECT_LT(tcp.result.transport_fetch_rpcs,
            tcp.result.transport_fetched_partitions);
  EXPECT_EQ(tcp.result.transport_retransmits, 0);
  EXPECT_EQ(tcp.result.transport_ram_serves, 12);
  EXPECT_GT(tcp.result.crc_verifications, 0);
}

TEST(ShuffleTransportJobTest, GoldenFingerprintAcrossReactorsAndWindows) {
  for (int reactors : {1, 4}) {
    for (int window : {1, 32}) {
      JobConf conf = TcpConf();
      conf.shuffle_server_reactors = reactors;
      conf.fetch_window_init = window;
      conf.fetch_window_max = window;
      conf.reduce_slowstart = 1.0;
      const JobOutcome outcome = RunGoldenJob(conf);
      EXPECT_EQ(outcome.fingerprint, InprocFingerprint())
          << "reactors=" << reactors << " window=" << window;
      EXPECT_EQ(outcome.result.transport_fetched_partitions, 12)
          << "reactors=" << reactors << " window=" << window;
    }
  }
}

TEST(ShuffleTransportJobTest, FingerprintStableAcrossCodecsAndStreams) {
  for (MapOutputCodec codec : {MapOutputCodec::kNone, MapOutputCodec::kLz4,
                               MapOutputCodec::kDeflate}) {
    for (int streams : {1, 4}) {
      JobConf conf = TcpConf();
      conf.map_output_codec = codec;
      conf.fetch_parallel_streams = streams;
      const JobOutcome outcome = RunGoldenJob(conf);
      EXPECT_EQ(outcome.fingerprint, InprocFingerprint())
          << "codec=" << MapOutputCodecName(codec) << " streams=" << streams;
    }
  }
}

TEST(ShuffleTransportJobTest, FingerprintStableAcrossThreadCounts) {
  for (int threads : {1, 8}) {
    JobConf conf = TcpConf();
    conf.local_threads = threads;
    EXPECT_EQ(RunGoldenJob(conf).fingerprint, InprocFingerprint())
        << "local_threads=" << threads;
  }
}

TEST(ShuffleTransportJobTest, SpilledOutputsServeOverSendfilePath) {
  JobConf conf = TcpConf();
  conf.spill_budget_bytes = 0;  // every sealed output lands on disk
  const JobOutcome outcome = RunGoldenJob(conf);
  EXPECT_EQ(outcome.fingerprint, InprocFingerprint());
  EXPECT_TRUE(outcome.result.spill_engine_enabled);
  EXPECT_EQ(outcome.result.transport_ram_serves, 0);
  EXPECT_EQ(outcome.result.transport_file_serves, 12);
}

TEST(ShuffleTransportJobTest, SpilledLz4FingerprintHolds) {
  JobConf conf = TcpConf();
  conf.spill_budget_bytes = 0;
  conf.map_output_codec = MapOutputCodec::kLz4;
  conf.local_threads = 4;
  const JobOutcome outcome = RunGoldenJob(conf);
  EXPECT_EQ(outcome.fingerprint, InprocFingerprint());
  EXPECT_EQ(outcome.result.transport_file_serves, 12);
}

// ---- Transport fault recovery ---------------------------------------------

TEST(ShuffleTransportJobTest, DropConnRetriesAndRecovers) {
  const JobOutcome outcome =
      RunGoldenJob(WithPlan(TcpConf(), "drop_conn:1@a=0"));
  EXPECT_EQ(outcome.fingerprint, InprocFingerprint());
  EXPECT_GE(outcome.result.transport_retransmits, 1);
  // The one dropped connection costs exactly one resume, whether the retry
  // dials or takes an idle pooled connection.
  EXPECT_EQ(outcome.result.transport_reconnects, 1);
}

TEST(ShuffleTransportJobTest, TruncFrameRetriesAndRecovers) {
  const JobOutcome outcome =
      RunGoldenJob(WithPlan(TcpConf(), "trunc_frame:2@a=1"));
  EXPECT_EQ(outcome.fingerprint, InprocFingerprint());
  EXPECT_GE(outcome.result.transport_retransmits, 1);
}

TEST(ShuffleTransportJobTest, SlowPeerDelaysButDoesNotChangeBytes) {
  const JobOutcome outcome =
      RunGoldenJob(WithPlan(TcpConf(), "slow_peer:0.5"));
  EXPECT_EQ(outcome.fingerprint, InprocFingerprint());
  EXPECT_EQ(outcome.result.transport_retransmits, 0);
}

TEST(ShuffleTransportJobTest, CombinedFaultsStillConverge) {
  const JobOutcome outcome = RunGoldenJob(WithPlan(
      TcpConf(), "drop_conn:0@a=0;trunc_frame:1@a=0;slow_peer:0.2"));
  EXPECT_EQ(outcome.fingerprint, InprocFingerprint());
  EXPECT_GE(outcome.result.transport_retransmits, 2);
}

TEST(ShuffleTransportJobTest, FaultsComposeWithSpillEngineAndCodec) {
  JobConf conf = WithPlan(TcpConf(), "drop_conn:3@a=0;slow_peer:0.1");
  conf.spill_budget_bytes = 0;
  conf.map_output_codec = MapOutputCodec::kLz4;
  const JobOutcome outcome = RunGoldenJob(conf);
  EXPECT_EQ(outcome.fingerprint, InprocFingerprint());
  EXPECT_GE(outcome.result.transport_retransmits, 1);
}

// Injected transport faults mid-batch: the batched plane retries inside
// the window and still converges to the golden bytes.
TEST(ShuffleTransportJobTest, V2FaultsRecoverUnderBatching) {
  JobConf conf = WithPlan(
      TcpConf(), "drop_conn:1@a=0;trunc_frame:2@a=1;slow_peer:0.2");
  conf.reduce_slowstart = 1.0;
  conf.fetch_window_init = 32;
  conf.fetch_window_max = 32;
  const JobOutcome outcome = RunGoldenJob(conf);
  EXPECT_EQ(outcome.fingerprint, InprocFingerprint());
  EXPECT_GE(outcome.result.transport_fetch_rpcs, 3);
  EXPECT_GE(outcome.result.transport_retransmits, 2);
}

// Transport faults in the plan are inert on the inproc data plane: there
// are no connections to drop, and bytes stay byte-identical.
TEST(ShuffleTransportJobTest, TransportFaultsAreInertOnInprocPlane) {
  const JobOutcome outcome = RunGoldenJob(
      WithPlan(BaseConf(), "drop_conn:1@a=0;slow_peer:0.3"));
  EXPECT_EQ(outcome.fingerprint, InprocFingerprint());
  EXPECT_FALSE(outcome.result.transport_enabled);
  EXPECT_EQ(outcome.result.transport_retransmits, 0);
}

}  // namespace
}  // namespace mrmb

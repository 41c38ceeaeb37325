#include "net/shuffle_transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/sendfile.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstring>

#include "common/logging.h"

namespace mrmb {

namespace {

constexpr int kMaxIov = 64;           // writev gather width per call
constexpr size_t kBufferPoolCap = 64; // retained reusable body buffers

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " +
                         std::strerror(errno));
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void SetSocketBuffers(int fd, int64_t bytes) {
  if (bytes <= 0) return;
  const int v = static_cast<int>(std::min<int64_t>(bytes, INT_MAX));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &v, sizeof(v));
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &v, sizeof(v));
}

void SetRecvTimeout(int fd, int64_t ms) {
  if (ms <= 0) return;
  timeval tv;
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Reads exactly `len` bytes from a blocking socket. Returns false on EOF,
// error, or an SO_RCVTIMEO expiry (torn read / connection reset / stall).
bool RecvAll(int fd, char* buf, size_t len) {
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, buf + got, len - got, 0);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR)) continue;
      return false;
    }
    got += static_cast<size_t>(n);
  }
  return true;
}

bool SendAll(int fd, const char* buf, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, buf + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

// ---- Server ---------------------------------------------------------------

// One queued batch entry, or one more slice of its body. `head` owns
// the encoded header — plus the whole body for error/truncated responses —
// the body is either a view into an anchored segment (a sliced partition
// queues one chunk per slice, the later ones with no head) or a byte range
// of an extent file. Per-block frames of a durable partition are adjacent
// on disk, so they were already coalesced into this single contiguous range
// at build time.
struct OutChunk {
  std::string head;
  std::string_view body;  // RAM body (valid while anchors live)
  std::shared_ptr<const SpillSegment> segment_anchor;
  std::shared_ptr<const StoredSpill> disk_anchor;
  int file_fd = -1;  // not owned; dup held by the registration
  off_t file_off = 0;
  int64_t file_len = 0;
};

struct ShuffleTransportServer::Connection {
  int fd = -1;
  std::string in;  // buffered request bytes
  // Vectored send queue: responses stream out in request order. Progress
  // counters track the front chunk only.
  std::deque<OutChunk> outq;
  size_t head_sent = 0;
  size_t body_sent = 0;
  int64_t file_sent = 0;
  bool close_after_write = false;
};

// One epoll thread owning a shard of the connections. The accept path
// (reactor 0's thread) inserts into `conns` under `mu`; after the fd is
// registered with this reactor's epoll, only this reactor's thread touches
// the Connection.
struct ShuffleTransportServer::Reactor {
  int epoll_fd = -1;
  int wake_fd = -1;
  std::mutex mu;
  std::unordered_map<int, std::unique_ptr<Connection>> conns;
};

Result<std::unique_ptr<ShuffleTransportServer>> ShuffleTransportServer::Start(
    const Options& options) {
  std::unique_ptr<ShuffleTransportServer> server(new ShuffleTransportServer());
  server->options_ = options;
  server->options_.reactors = std::max(1, std::min(16, options.reactors));

  server->listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (server->listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(server->listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
               sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(server->listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind");
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(server->listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    return Errno("getsockname");
  }
  server->port_ = ntohs(addr.sin_port);
  if (::listen(server->listen_fd_, 128) != 0) return Errno("listen");
  if (!SetNonBlocking(server->listen_fd_)) return Errno("fcntl");

  for (int i = 0; i < server->options_.reactors; ++i) {
    auto reactor = std::make_unique<Reactor>();
    reactor->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (reactor->epoll_fd < 0) return Errno("epoll_create1");
    reactor->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (reactor->wake_fd < 0) return Errno("eventfd");
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.fd = reactor->wake_fd;
    if (::epoll_ctl(reactor->epoll_fd, EPOLL_CTL_ADD, reactor->wake_fd,
                    &ev) != 0) {
      return Errno("epoll_ctl(wake)");
    }
    server->reactors_.push_back(std::move(reactor));
  }
  // Reactor 0 owns the accept loop; accepted fds are handed round-robin to
  // every reactor.
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.fd = server->listen_fd_;
  if (::epoll_ctl(server->reactors_[0]->epoll_fd, EPOLL_CTL_ADD,
                  server->listen_fd_, &ev) != 0) {
    return Errno("epoll_ctl(listen)");
  }

  server->threads_ = std::make_unique<ThreadPool>(server->options_.reactors);
  for (auto& reactor : server->reactors_) {
    server->threads_->Submit(
        [server = server.get(), raw = reactor.get()] { server->Run(raw); });
  }
  return server;
}

ShuffleTransportServer::~ShuffleTransportServer() {
  stopping_.store(true);
  for (auto& reactor : reactors_) {
    if (reactor->wake_fd >= 0) {
      const uint64_t one = 1;
      [[maybe_unused]] const ssize_t n =
          ::write(reactor->wake_fd, &one, sizeof(one));
    }
  }
  threads_.reset();  // joins every reactor
  for (auto& reactor : reactors_) {
    std::lock_guard<std::mutex> lock(reactor->mu);
    for (auto& [fd, conn] : reactor->conns) ::close(fd);
    reactor->conns.clear();
    if (reactor->epoll_fd >= 0) ::close(reactor->epoll_fd);
    if (reactor->wake_fd >= 0) ::close(reactor->wake_fd);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [map, reg] : outputs_) {
      if (reg.fd >= 0) ::close(reg.fd);
    }
    outputs_.clear();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void ShuffleTransportServer::Publish(
    int map, uint32_t generation, std::shared_ptr<const SpillSegment> segment,
    std::shared_ptr<const StoredSpill> disk) {
  int extent_fd = -1;
  if (disk != nullptr) {
    // The handle's own fd is private; the server keeps its own descriptor
    // for sendfile so reads never race handle teardown.
    extent_fd = ::open(disk->path().c_str(), O_RDONLY | O_CLOEXEC);
  }
  std::lock_guard<std::mutex> lock(mu_);
  Registration& reg = outputs_[map];
  if (reg.fd >= 0) ::close(reg.fd);
  reg.generation = generation;
  reg.segment = std::move(segment);
  reg.disk = std::move(disk);
  reg.fd = extent_fd;
}

ShuffleServerStats ShuffleTransportServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ShuffleTransportServer::Run(Reactor* reactor) {
  epoll_event events[64];
  while (!stopping_.load()) {
    const int n = ::epoll_wait(reactor->epoll_fd, events, 64, 500);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == reactor->wake_fd) {
        uint64_t drain = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(reactor->wake_fd, &drain, sizeof(drain));
        continue;
      }
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      Connection* conn = nullptr;
      {
        std::lock_guard<std::mutex> lock(reactor->mu);
        auto it = reactor->conns.find(fd);
        if (it != reactor->conns.end()) conn = it->second.get();
      }
      if (conn == nullptr) continue;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(reactor, conn);
        continue;
      }
      if (events[i].events & EPOLLOUT) {
        if (!HandleWritable(reactor, conn)) continue;  // conn torn down
      }
      if (events[i].events & EPOLLIN) HandleReadable(reactor, conn);
    }
  }
}

void ShuffleTransportServer::AcceptReady() {
  while (true) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) break;
    SetNonBlocking(client);
    SetNoDelay(client);
    SetSocketBuffers(client, options_.socket_buffer_bytes);
    // Round-robin fd handoff: the target reactor's epoll picks the
    // connection up immediately (epoll_ctl is safe across threads).
    Reactor* target =
        reactors_[next_reactor_.fetch_add(1) % reactors_.size()].get();
    auto conn = std::make_unique<Connection>();
    conn->fd = client;
    {
      std::lock_guard<std::mutex> lock(target->mu);
      target->conns[client] = std::move(conn);
    }
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.fd = client;
    if (::epoll_ctl(target->epoll_fd, EPOLL_CTL_ADD, client, &ev) != 0) {
      std::lock_guard<std::mutex> lock(target->mu);
      target->conns.erase(client);
      ::close(client);
      continue;
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.accepted_connections;
  }
}

void ShuffleTransportServer::CloseConnection(Reactor* reactor,
                                             Connection* conn) {
  const int fd = conn->fd;
  ::epoll_ctl(reactor->epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  std::lock_guard<std::mutex> lock(reactor->mu);
  reactor->conns.erase(fd);
}

void ShuffleTransportServer::HandleReadable(Reactor* reactor,
                                            Connection* conn) {
  char buf[16384];
  while (true) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->in.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {  // peer closed
      CloseConnection(reactor, conn);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(reactor, conn);
    return;
  }
  if (!ParseRequests(reactor, conn)) return;  // torn down
  FlushOutput(reactor, conn);
}

bool ShuffleTransportServer::HandleWritable(Reactor* reactor,
                                            Connection* conn) {
  return FlushOutput(reactor, conn);
}

// Decodes every complete buffered request — pipelining is the point, so
// there is no one-in-flight gate — queueing one entry per want. Returns
// false when the connection was torn down (protocol garbage, drop_conn
// injection).
bool ShuffleTransportServer::ParseRequests(Reactor* reactor,
                                           Connection* conn) {
  while (!conn->close_after_write &&
         conn->in.size() >= kShuffleBatchRequestHeadSize) {
    ShuffleBatchRequestHead head;
    const Status decoded = DecodeShuffleBatchRequestHead(
        std::string_view(conn->in).substr(0, kShuffleBatchRequestHeadSize),
        &head);
    if (!decoded.ok()) {  // protocol garbage: drop the connection
      CloseConnection(reactor, conn);
      return false;
    }
    const size_t need = kShuffleBatchRequestHeadSize +
                        static_cast<size_t>(head.count) * kShuffleBatchWantSize;
    if (conn->in.size() < need) break;
    std::vector<ShuffleFetchWant> wants;
    const Status parsed = DecodeShuffleBatchWants(
        std::string_view(conn->in).substr(kShuffleBatchRequestHeadSize,
                                          need - kShuffleBatchRequestHeadSize),
        head.count, &wants);
    conn->in.erase(0, need);
    if (!parsed.ok()) {
      CloseConnection(reactor, conn);
      return false;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.batch_requests;
    }
    for (uint32_t i = 0; i < head.count; ++i) {
      if (!BuildEntry(conn, head.job_digest, wants[i], i)) {
        CloseConnection(reactor, conn);
        return false;
      }
      // A truncation fault ends this connection after the queued bytes
      // drain; later wants of the batch go unanswered (the client
      // re-requests them on a fresh connection).
      if (conn->close_after_write) break;
    }
  }
  return true;
}

// Queues one response. Returns false only for a drop_conn injection — the
// caller closes the connection before any of this entry's bytes exist.
bool ShuffleTransportServer::BuildEntry(Connection* conn, uint64_t job_digest,
                                        const ShuffleFetchWant& want,
                                        uint32_t index) {
  ShuffleBatchEntryHeader entry;
  entry.index = index;
  TransportFault fault = TransportFault::kNone;
  std::shared_ptr<const SpillSegment> segment;
  std::shared_ptr<const StoredSpill> disk;
  int file_fd = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t seq = fetch_seq_[want.map]++;
    if (options_.fault_hook) {
      fault = options_.fault_hook(want.map, seq);
      if (fault != TransportFault::kNone) ++stats_.faults_injected;
    }
    ++stats_.fetches_served;
    auto it = outputs_.find(want.map);
    if (job_digest != options_.job_digest) {
      entry.status = FetchStatus::kError;
    } else if (it == outputs_.end()) {
      entry.status = FetchStatus::kNotFound;
      ++stats_.not_found;
    } else if (it->second.generation != want.generation) {
      entry.status = FetchStatus::kStaleGeneration;
      entry.generation = it->second.generation;
      ++stats_.stale_refused;
    } else {
      segment = it->second.segment;
      disk = it->second.disk;
      file_fd = it->second.fd;
      entry.generation = it->second.generation;
    }
  }
  if (fault == TransportFault::kDropConn) return false;

  OutChunk chunk;
  const int r = want.partition;
  if (entry.status != FetchStatus::kOk) {
    EncodeShuffleBatchEntryHeader(entry, &chunk.head);
    conn->outq.push_back(std::move(chunk));
    return true;
  }
  if (disk != nullptr && file_fd >= 0) {
    // Durable extent: ship the partition's contiguous frame byte range —
    // [first frame's length prefix, end of last frame) — untouched. The
    // partition's per-block frames are adjacent on disk, so they coalesce
    // into this one sendfile range here at build time.
    const auto& ranges = disk->partitions();
    if (r < 0 || static_cast<size_t>(r) >= ranges.size()) {
      entry.status = FetchStatus::kError;
      EncodeShuffleBatchEntryHeader(entry, &chunk.head);
      conn->outq.push_back(std::move(chunk));
      return true;
    }
    const SpillSegment::PartitionRange& range = ranges[r];
    int64_t begin = -1, end = -1;
    for (const StoredSpill::BlockRef& block : disk->blocks()) {
      if (block.partition != r) continue;
      const int64_t prefix_at = block.file_offset - 4;
      if (begin < 0 || prefix_at < begin) begin = prefix_at;
      end = std::max(end, block.file_offset + block.frame_len);
    }
    entry.raw_len = range.raw_bytes();
    entry.partition_crc = range.crc;
    entry.records = range.records;
    entry.encoding = FetchEncoding::kFrameStream;
    entry.body_len = begin < 0 ? 0 : end - begin;
    EncodeShuffleBatchEntryHeader(entry, &chunk.head);
    if (fault == TransportFault::kTruncFrame && entry.body_len > 0) {
      // Materialize half the body after the header, then hang up: the
      // client sees a short read mid-frame-stream.
      const int64_t trunc = std::max<int64_t>(1, entry.body_len / 2);
      std::string part(static_cast<size_t>(trunc), '\0');
      const ssize_t got = ::pread(file_fd, part.data(), part.size(),
                                  static_cast<off_t>(begin));
      part.resize(got > 0 ? static_cast<size_t>(got) : 0);
      chunk.head += part;
      conn->close_after_write = true;
    } else if (entry.body_len > 0) {
      chunk.disk_anchor = std::move(disk);
      chunk.file_fd = file_fd;
      chunk.file_off = static_cast<off_t>(begin);
      chunk.file_len = entry.body_len;
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.file_serves;
  } else if (segment != nullptr) {
    const auto& ranges = segment->partitions;
    if (r < 0 || static_cast<size_t>(r) >= ranges.size()) {
      entry.status = FetchStatus::kError;
      EncodeShuffleBatchEntryHeader(entry, &chunk.head);
      conn->outq.push_back(std::move(chunk));
      return true;
    }
    const SpillSegment::PartitionRange& range = ranges[r];
    const std::vector<std::string_view> body = segment->PartitionSlices(r);
    entry.raw_len = range.raw_bytes();
    entry.partition_crc = range.crc;
    entry.records = range.records;
    entry.encoding = FetchEncoding::kPartitionBytes;
    entry.body_len = range.length;
    EncodeShuffleBatchEntryHeader(entry, &chunk.head);
    if (fault == TransportFault::kTruncFrame && range.length > 0) {
      // The first half of the body in slice order, then hang up.
      size_t left =
          std::max<size_t>(1, static_cast<size_t>(range.length) / 2);
      for (const std::string_view slice : body) {
        const size_t take = std::min(left, slice.size());
        chunk.head.append(slice.substr(0, take));
        left -= take;
        if (left == 0) break;
      }
      conn->close_after_write = true;
    } else {
      // One chunk per slice: FlushOutput gathers consecutive chunks' bytes
      // into its writev calls, so each slice is one body iovec.
      for (size_t i = 0; i < body.size(); ++i) {
        if (i > 0) {
          conn->outq.push_back(std::move(chunk));
          chunk = OutChunk();
        }
        chunk.segment_anchor = segment;
        chunk.body = body[i];
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.ram_serves;
  } else {
    // Registered at the right generation but the backing bytes are gone
    // (extent unreadable / never opened): the output is lost. Per-entry
    // status keeps the rest of the batch serving.
    entry.status = FetchStatus::kDataLoss;
    entry.generation = want.generation;
    EncodeShuffleBatchEntryHeader(entry, &chunk.head);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.data_loss;
  }
  conn->outq.push_back(std::move(chunk));
  return true;
}

// Drains as much pending output as the socket accepts: RAM bytes (headers
// and segment bodies) of consecutive queued responses gather into single
// writev calls; file ranges ship via sendfile, merging adjacent on-disk
// ranges of consecutive chunks when nothing interleaves. Returns false
// when the connection was torn down (error or deliberate post-truncation
// close).
bool ShuffleTransportServer::FlushOutput(Reactor* reactor, Connection* conn) {
  int64_t written_now = 0;
  bool blocked = false;
  bool dead = false;
  while (!conn->outq.empty() && !blocked) {
    OutChunk& front = conn->outq.front();
    const size_t head_left = front.head.size() - conn->head_sent;
    const size_t body_left = front.body.size() - conn->body_sent;
    if (head_left > 0 || body_left > 0) {
      iovec iov[kMaxIov];
      int cnt = 0;
      if (head_left > 0) {
        iov[cnt].iov_base =
            const_cast<char*>(front.head.data()) + conn->head_sent;
        iov[cnt++].iov_len = head_left;
      }
      if (body_left > 0) {
        iov[cnt].iov_base =
            const_cast<char*>(front.body.data()) + conn->body_sent;
        iov[cnt++].iov_len = body_left;
      }
      if (front.file_len == 0) {
        // Coalesce the following chunks' RAM bytes into the same writev,
        // up to the first file range.
        for (size_t i = 1; i < conn->outq.size() && cnt + 2 <= kMaxIov;
             ++i) {
          OutChunk& c = conn->outq[i];
          if (!c.head.empty()) {
            iov[cnt].iov_base = const_cast<char*>(c.head.data());
            iov[cnt++].iov_len = c.head.size();
          }
          if (!c.body.empty()) {
            iov[cnt].iov_base = const_cast<char*>(c.body.data());
            iov[cnt++].iov_len = c.body.size();
          }
          if (c.file_len > 0) break;
        }
      }
      const ssize_t n = ::writev(conn->fd, iov, cnt);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          blocked = true;
          break;
        }
        dead = true;
        break;
      }
      written_now += n;
      size_t left = static_cast<size_t>(n);
      while (left > 0 && !conn->outq.empty()) {
        OutChunk& c = conn->outq.front();
        const size_t h =
            std::min(left, c.head.size() - conn->head_sent);
        conn->head_sent += h;
        left -= h;
        const size_t b =
            std::min(left, c.body.size() - conn->body_sent);
        conn->body_sent += b;
        left -= b;
        if (conn->head_sent == c.head.size() &&
            conn->body_sent == c.body.size() && c.file_len == 0) {
          conn->outq.pop_front();
          conn->head_sent = 0;
          conn->body_sent = 0;
          conn->file_sent = 0;
        } else {
          break;  // partial, or a file range still pending on this chunk
        }
      }
      continue;
    }
    if (conn->file_sent < front.file_len) {
      off_t off = front.file_off + static_cast<off_t>(conn->file_sent);
      int64_t want = front.file_len - conn->file_sent;
      // Merge adjacent extent ranges: consecutive pure-file chunks on the
      // same fd whose ranges touch extend this sendfile call.
      off_t expect = front.file_off + front.file_len;
      for (size_t i = 1; i < conn->outq.size(); ++i) {
        const OutChunk& c = conn->outq[i];
        if (!c.head.empty() || !c.body.empty() ||
            c.file_fd != front.file_fd || c.file_off != expect) {
          break;
        }
        want += c.file_len;
        expect += static_cast<off_t>(c.file_len);
      }
      ssize_t n = ::sendfile(conn->fd, front.file_fd, &off,
                             static_cast<size_t>(
                                 std::min<int64_t>(want, 1 << 20)));
      if (n < 0 && (errno == EINVAL || errno == ENOSYS)) {
        // Filesystem without sendfile support: pread + send the same range.
        char buf[64 << 10];
        const size_t chunk_want = static_cast<size_t>(std::min<int64_t>(
            want, static_cast<int64_t>(sizeof(buf))));
        off = front.file_off + static_cast<off_t>(conn->file_sent);
        const ssize_t got = ::pread(front.file_fd, buf, chunk_want, off);
        if (got <= 0) {
          dead = true;
          break;
        }
        n = ::send(conn->fd, buf, static_cast<size_t>(got), MSG_NOSIGNAL);
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          blocked = true;
          break;
        }
        dead = true;
        break;
      }
      written_now += n;
      conn->file_sent += n;
      // Completed chunks pop; sent bytes past the front chunk carry into
      // the merged followers.
      while (!conn->outq.empty()) {
        OutChunk& c = conn->outq.front();
        if (conn->head_sent == c.head.size() &&
            conn->body_sent == c.body.size() &&
            conn->file_sent >= c.file_len) {
          conn->file_sent -= c.file_len;
          conn->outq.pop_front();
          conn->head_sent = 0;
          conn->body_sent = 0;
        } else {
          break;
        }
      }
      continue;
    }
    // Front chunk fully sent (all-empty chunk edge case).
    conn->outq.pop_front();
    conn->head_sent = 0;
    conn->body_sent = 0;
    conn->file_sent = 0;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.bytes_sent += written_now;
  }
  if (dead) {
    CloseConnection(reactor, conn);
    return false;
  }
  if (conn->outq.empty() && conn->close_after_write) {
    CloseConnection(reactor, conn);
    return false;
  }
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = conn->outq.empty() ? EPOLLIN : (EPOLLIN | EPOLLOUT);
  ev.data.fd = conn->fd;
  ::epoll_ctl(reactor->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
  return true;
}

// ---- Client ---------------------------------------------------------------

ShuffleTransportClient::ShuffleTransportClient(const Options& options)
    : options_(options),
      window_(std::max(1, std::min(options.window_init,
                                   std::max(1, options.window_max)))) {}

ShuffleTransportClient::~ShuffleTransportClient() {
  std::lock_guard<std::mutex> lock(mu_);
  for (int fd : idle_fds_) ::close(fd);
  idle_fds_.clear();
}

int ShuffleTransportClient::AcquireConnection() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] {
    return !idle_fds_.empty() || open_streams_ < options_.parallel_streams;
  });
  if (!idle_fds_.empty()) {
    const int fd = idle_fds_.back();
    idle_fds_.pop_back();
    return fd;
  }
  ++open_streams_;
  ++stats_.connections;
  lock.unlock();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::lock_guard<std::mutex> relock(mu_);
    --open_streams_;
    cv_.notify_one();
    return -1;
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    std::lock_guard<std::mutex> relock(mu_);
    --open_streams_;
    cv_.notify_one();
    return -1;
  }
  SetNoDelay(fd);
  SetSocketBuffers(fd, options_.socket_buffer_bytes);
  SetRecvTimeout(fd, options_.recv_timeout_ms);
  return fd;
}

void ShuffleTransportClient::ReleaseConnection(int fd, bool healthy) {
  std::lock_guard<std::mutex> lock(mu_);
  if (healthy) {
    idle_fds_.push_back(fd);
  } else {
    ::close(fd);
    --open_streams_;
  }
  cv_.notify_one();
}

void ShuffleTransportClient::ReserveInflight(int64_t bytes) {
  const int64_t want = std::min(bytes, options_.max_inflight_bytes);
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] {
    return inflight_bytes_ == 0 ||
           inflight_bytes_ + want <= options_.max_inflight_bytes;
  });
  inflight_bytes_ += want;
}

void ShuffleTransportClient::ReleaseInflight(int64_t bytes) {
  const int64_t taken = std::min(bytes, options_.max_inflight_bytes);
  std::lock_guard<std::mutex> lock(mu_);
  inflight_bytes_ -= taken;
  cv_.notify_all();
}

int64_t ShuffleTransportClient::DelayForWant(const ShuffleFetchWant& want) {
  if (!options_.delay_ms_hook) return 0;
  int64_t seq;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seq = fetch_seq_[want.map]++;
  }
  return options_.delay_ms_hook(want.map, seq);
}

void ShuffleTransportClient::RecordEntry(int64_t wire_bytes,
                                         double latency_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.fetches;
  stats_.wire_bytes += wire_bytes;
  latencies_ms_.push_back(latency_ms);
}

std::string ShuffleTransportClient::AcquireBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!buffer_pool_.empty()) {
    ++stats_.pool_hits;
    std::string buffer = std::move(buffer_pool_.back());
    buffer_pool_.pop_back();
    buffer.clear();
    return buffer;
  }
  ++stats_.pool_misses;
  return std::string();
}

void ShuffleTransportClient::RecycleBuffer(std::string&& buffer) {
  std::lock_guard<std::mutex> lock(mu_);
  if (buffer_pool_.size() < kBufferPoolCap) {
    buffer_pool_.push_back(std::move(buffer));
  }
}

bool ShuffleTransportClient::ReadBatchEntry(int fd, uint32_t expect_index,
                                            ShuffleFetchResult* result) {
  char head[kShuffleBatchEntryHeaderSize];
  if (!RecvAll(fd, head, sizeof(head))) return false;
  ShuffleBatchEntryHeader entry;
  if (!DecodeShuffleBatchEntryHeader(std::string_view(head, sizeof(head)),
                                     &entry)
           .ok()) {
    return false;
  }
  if (entry.index != expect_index) return false;  // stream out of sync
  result->status = entry.status;
  result->generation = entry.generation;
  result->raw_len = entry.raw_len;
  result->partition_crc = entry.partition_crc;
  result->records = entry.records;
  result->encoding = entry.encoding;
  result->body.clear();
  if (entry.body_len > 0) {
    ReserveInflight(entry.body_len);
    result->body = AcquireBuffer();
    result->body.resize(static_cast<size_t>(entry.body_len));
    const bool ok = RecvAll(fd, result->body.data(), result->body.size());
    ReleaseInflight(entry.body_len);
    if (!ok) {
      RecycleBuffer(std::move(result->body));
      result->body.clear();
      return false;
    }
  }
  result->wire_bytes =
      static_cast<int64_t>(kShuffleBatchEntryHeaderSize) + entry.body_len;
  return true;
}

std::vector<ShuffleFetchResult> ShuffleTransportClient::FetchBatch(
    const std::vector<ShuffleFetchWant>& wants) {
  std::vector<ShuffleFetchResult> results(wants.size());
  if (wants.empty()) return results;

  // slow_peer injection: every want's planned delay is consulted once, up
  // front. The wants' transfers would overlap on concurrent streams, so
  // the batch sleeps the max, not the sum.
  int64_t delay = 0;
  for (const ShuffleFetchWant& want : wants) {
    delay = std::max(delay, DelayForWant(want));
  }
  if (delay > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
  }

  std::deque<size_t> pending;
  for (size_t i = 0; i < wants.size(); ++i) pending.push_back(i);
  std::vector<int> attempts(wants.size(), 0);
  struct Sent {
    size_t want_index;
    uint32_t batch_pos;
    double sent_ms;
  };
  std::deque<Sent> inflight;
  int fd = -1;
  bool conn_died = false;  // this call's connection died mid-fetch

  // Charges one transport attempt to every outstanding entry; entries out
  // of budget are reported lost, the rest go back to `pending` in original
  // send order and count as retransmits.
  auto requeue_outstanding = [&] {
    std::vector<size_t> redo;
    redo.reserve(inflight.size() + pending.size());
    for (const Sent& s : inflight) redo.push_back(s.want_index);
    for (size_t idx : pending) redo.push_back(idx);
    inflight.clear();
    pending.clear();
    int64_t retried = 0;
    for (size_t idx : redo) {
      if (++attempts[idx] >= options_.max_attempts) {
        results[idx].transport_ok = false;
      } else {
        pending.push_back(idx);
        ++retried;
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    stats_.retransmits += retried;
  };

  // Tears down a connection that died mid-fetch and requeues what it
  // still owed.
  auto drop_connection = [&] {
    ReleaseConnection(fd, false);
    fd = -1;
    conn_died = true;
    window_.store(std::max(1, window_.load() / 2));
    requeue_outstanding();
  };

  while (!pending.empty() || !inflight.empty()) {
    if (fd < 0) {
      fd = AcquireConnection();
      if (fd < 0) {
        requeue_outstanding();
        if (pending.empty()) return results;
        continue;
      }
      if (conn_died) {
        // Resuming on another connection after this call's own died.
        conn_died = false;
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.reconnects;
      }
    }
    const size_t window = static_cast<size_t>(std::max(1, window_.load()));
    // Ack-clocked refill: top the pipe back up once it drains below half
    // the window (≈2 batch messages per window of entries instead of one
    // per response, keeping the pipe busy without chatty sends).
    if (!pending.empty() &&
        (inflight.empty() || inflight.size() <= window / 2)) {
      const size_t n = std::min(
          {pending.size(), window - inflight.size(),
           static_cast<size_t>(kShuffleBatchMaxWants)});
      std::vector<ShuffleFetchWant> batch;
      batch.reserve(n);
      for (size_t k = 0; k < n; ++k) {
        batch.push_back(wants[pending[k]]);
      }
      std::string wire;
      EncodeShuffleBatchRequest(options_.job_digest, batch.data(), n, &wire);
      if (!SendAll(fd, wire.data(), wire.size())) {
        drop_connection();
        continue;
      }
      const double sent_ms = NowMs();
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.rpcs;
        stats_.window_peak =
            std::max(stats_.window_peak, static_cast<int64_t>(window));
      }
      for (size_t k = 0; k < n; ++k) {
        inflight.push_back({pending.front(), static_cast<uint32_t>(k),
                            sent_ms});
        pending.pop_front();
      }
      continue;
    }
    const Sent expect = inflight.front();
    ShuffleFetchResult& slot = results[expect.want_index];
    if (!ReadBatchEntry(fd, expect.batch_pos, &slot)) {
      drop_connection();
      continue;
    }
    inflight.pop_front();
    slot.transport_ok = true;
    slot.latency_ms = NowMs() - expect.sent_ms;
    RecordEntry(slot.wire_bytes, slot.latency_ms);
    // AIMD additive increase: one more in-flight entry per clean response.
    const int w = window_.load();
    if (w < options_.window_max) window_.store(w + 1);
  }
  if (fd >= 0) ReleaseConnection(fd, true);
  return results;
}

ShuffleClientStats ShuffleTransportClient::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ShuffleClientStats out = stats_;
  const int64_t pool_lookups = out.pool_hits + out.pool_misses;
  out.pool_hit_rate =
      pool_lookups > 0
          ? static_cast<double>(out.pool_hits) /
                static_cast<double>(pool_lookups)
          : 0.0;
  if (!latencies_ms_.empty()) {
    std::vector<double> sorted = latencies_ms_;
    std::sort(sorted.begin(), sorted.end());
    double sum = 0;
    for (double v : sorted) sum += v;
    out.fetch_mean_ms = sum / static_cast<double>(sorted.size());
    const size_t p99 =
        std::min(sorted.size() - 1,
                 static_cast<size_t>(0.99 * static_cast<double>(sorted.size())));
    out.fetch_p99_ms = sorted[p99];
  }
  return out;
}

}  // namespace mrmb

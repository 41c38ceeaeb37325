#include "io/spill_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "io/byte_buffer.h"
#include "io/checksum.h"

namespace mrmb {

namespace {

// A block's cache key: extent id in the high 32 bits, block index below.
// Extents are bounded by a single segment's size, so block indices never
// approach 2^32.
uint64_t CacheKey(uint64_t extent, int64_t block) {
  return (extent << 32) | static_cast<uint64_t>(block);
}

std::string ErrnoMessage(const char* op, const std::string& path) {
  return StringPrintf("%s %s: %s", op, path.c_str(), std::strerror(errno));
}

// How many retries a (possibly injected) EIO pread gets before the block
// read surfaces kIOError.
constexpr int kMaxReadAttempts = 3;

// Extent writes go out in bounded slices so admission control (and the
// fault injector's ENOSPC threshold) see byte progress, not one opaque
// syscall.
constexpr size_t kWriteSliceBytes = 1 << 20;

}  // namespace

// --- ArcBlockCache --------------------------------------------------------

ArcBlockCache::ArcBlockCache(int64_t capacity_bytes)
    : capacity_(std::max<int64_t>(0, capacity_bytes)) {}

void ArcBlockCache::Unlink(uint64_t key, Entry* entry) {
  (void)key;
  lists_[entry->list].erase(entry->pos);
  list_bytes_[entry->list] -= entry->bytes;
}

void ArcBlockCache::LinkFront(uint64_t key, Entry* entry, ListId list) {
  entry->list = list;
  lists_[list].push_front(key);
  entry->pos = lists_[list].begin();
  list_bytes_[list] += entry->bytes;
}

// Demotes the LRU resident block of T1 or T2 to the matching ghost list.
void ArcBlockCache::EvictResident(bool prefer_t1) {
  const ListId from = (prefer_t1 && !lists_[kT1].empty()) || lists_[kT2].empty()
                          ? kT1
                          : kT2;
  const uint64_t victim = lists_[from].back();
  Entry& entry = entries_.at(victim);
  Unlink(victim, &entry);
  entry.payload.reset();
  LinkFront(victim, &entry, from == kT1 ? kB1 : kB2);
  ++evictions_;
}

// ARC's REPLACE: make room for `incoming_bytes` of resident payload,
// steering eviction toward T1 while it exceeds the adaptive target (and
// away from it on a B2 ghost hit at the exact boundary).
void ArcBlockCache::ReplaceLocked(int64_t incoming_bytes,
                                  bool ghost_hit_in_b2) {
  while (list_bytes_[kT1] + list_bytes_[kT2] + incoming_bytes > capacity_ &&
         (!lists_[kT1].empty() || !lists_[kT2].empty())) {
    const bool prefer_t1 =
        !lists_[kT1].empty() &&
        (list_bytes_[kT1] > target_t1_ ||
         (ghost_hit_in_b2 && list_bytes_[kT1] == target_t1_));
    EvictResident(prefer_t1);
  }
}

// Bounds ghost history to one extra cache's worth of key metadata.
void ArcBlockCache::TrimGhostsLocked() {
  while (list_bytes_[kB1] > capacity_ && !lists_[kB1].empty()) {
    const uint64_t victim = lists_[kB1].back();
    Unlink(victim, &entries_.at(victim));
    entries_.erase(victim);
  }
  while (list_bytes_[kB1] + list_bytes_[kB2] > capacity_ &&
         !lists_[kB2].empty()) {
    const uint64_t victim = lists_[kB2].back();
    Unlink(victim, &entries_.at(victim));
    entries_.erase(victim);
  }
}

std::shared_ptr<const std::string> ArcBlockCache::Get(uint64_t extent,
                                                      int64_t block) {
  const uint64_t key = CacheKey(extent, block);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.payload == nullptr) {
    ++misses_;
    return nullptr;
  }
  // Any resident re-reference promotes to the frequency side.
  Unlink(key, &it->second);
  LinkFront(key, &it->second, kT2);
  ++hits_;
  return it->second.payload;
}

void ArcBlockCache::Put(uint64_t extent, int64_t block,
                        std::shared_ptr<const std::string> payload) {
  if (payload == nullptr) return;
  const int64_t bytes = static_cast<int64_t>(payload->size());
  if (bytes == 0 || bytes > capacity_) return;  // never admit the unhelpful
  const uint64_t key = CacheKey(extent, block);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second.payload != nullptr) {
    // Already resident (racing readers): refresh and promote.
    Unlink(key, &it->second);
    it->second.payload = std::move(payload);
    it->second.bytes = bytes;
    LinkFront(key, &it->second, kT2);
    return;
  }
  if (it != entries_.end()) {
    // Ghost hit: the history lists vote on where capacity should lean —
    // a B1 hit means pure recency would have kept it (grow T1's share), a
    // B2 hit the opposite.
    const bool in_b1 = it->second.list == kB1;
    const int64_t b1 = std::max<int64_t>(1, list_bytes_[kB1]);
    const int64_t b2 = std::max<int64_t>(1, list_bytes_[kB2]);
    if (in_b1) {
      target_t1_ = std::min(capacity_,
                            target_t1_ + std::max<int64_t>(bytes, b2 / b1 * bytes));
    } else {
      target_t1_ = std::max<int64_t>(
          0, target_t1_ - std::max<int64_t>(bytes, b1 / b2 * bytes));
    }
    Unlink(key, &it->second);
    it->second.payload = std::move(payload);
    it->second.bytes = bytes;
    ReplaceLocked(bytes, /*ghost_hit_in_b2=*/!in_b1);
    LinkFront(key, &it->second, kT2);
    TrimGhostsLocked();
    return;
  }
  // Cold insert: lands on the recency side.
  ReplaceLocked(bytes, /*ghost_hit_in_b2=*/false);
  Entry entry;
  entry.payload = std::move(payload);
  entry.bytes = bytes;
  auto inserted = entries_.emplace(key, std::move(entry)).first;
  LinkFront(key, &inserted->second, kT1);
  TrimGhostsLocked();
}

void ArcBlockCache::EraseExtent(uint64_t extent) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if ((it->first >> 32) == extent) {
      Unlink(it->first, &it->second);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

int64_t ArcBlockCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

int64_t ArcBlockCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

int64_t ArcBlockCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

int64_t ArcBlockCache::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return list_bytes_[kT1] + list_bytes_[kT2];
}

int64_t ArcBlockCache::target_t1_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return target_t1_;
}

// --- StoredSpill ----------------------------------------------------------

StoredSpill::~StoredSpill() {
  if (store_ != nullptr) store_->ReleaseExtent(this);
}

Result<std::string> StoredSpill::ReadPartition(int partition,
                                               bool verify_partition_crc) const {
  if (partition < 0 ||
      static_cast<size_t>(partition) >= partitions_.size()) {
    return Status::InvalidArgument(
        StringPrintf("extent holds %zu partitions, asked for %d",
                     partitions_.size(), partition));
  }
  const SpillSegment::PartitionRange& range =
      partitions_[static_cast<size_t>(partition)];
  std::string out;
  out.reserve(static_cast<size_t>(range.length));
  // Blocks are laid out partition-major, so the partition's frames form one
  // contiguous run in the index.
  auto first = std::lower_bound(
      blocks_.begin(), blocks_.end(), partition,
      [](const BlockRef& ref, int p) { return ref.partition < p; });
  for (auto it = first; it != blocks_.end() && it->partition == partition;
       ++it) {
    const int64_t index = it - blocks_.begin();
    MRMB_ASSIGN_OR_RETURN(std::shared_ptr<const std::string> payload,
                          store_->GetBlock(*this, index));
    out.append(*payload);
  }
  if (static_cast<int64_t>(out.size()) != range.length) {
    return Status::Internal(StringPrintf(
        "partition %d reassembled to %zu bytes, index says %lld", partition,
        out.size(), static_cast<long long>(range.length)));
  }
  if (verify_partition_crc) {
    const uint32_t actual = Crc32c(out);
    if (actual != range.crc) {
      return Status::DataLoss(StringPrintf(
          "partition %d of task %d failed end-to-end CRC32C after block "
          "reassembly (stored %08x, computed %08x)",
          partition, task_, range.crc, actual));
    }
  }
  return out;
}

// --- SpillStore -----------------------------------------------------------

SpillStore::SpillStore(const SpillStoreOptions& options, SpillIoHooks* hooks,
                       std::string dir)
    : options_(options), hooks_(hooks), dir_(std::move(dir)) {
  if (options_.cache_bytes > 0) {
    cache_ = std::make_unique<ArcBlockCache>(options_.cache_bytes);
  }
}

Result<std::unique_ptr<SpillStore>> SpillStore::Open(
    const SpillStoreOptions& options, SpillIoHooks* hooks) {
  if (options.block_bytes <= 0) {
    return Status::InvalidArgument("spill store block size must be positive");
  }
  if (options.cache_bytes < 0) {
    return Status::InvalidArgument(
        "spill store cache size must be non-negative");
  }
  if (options.exact_dir && options.dir.empty()) {
    return Status::InvalidArgument(
        "spill store exact_dir requires an explicit directory");
  }
  std::error_code ec;
  std::filesystem::path parent;
  if (options.dir.empty()) {
    parent = std::filesystem::temp_directory_path(ec);
    if (ec) {
      return Status::IOError("cannot resolve temp directory: " + ec.message());
    }
  } else {
    parent = options.dir;
  }
  // One unique directory per store instance, removed wholesale on
  // destruction — concurrent jobs (and crashed predecessors) never collide.
  // exact_dir callers (the crash-safe job runner) instead pin the store to a
  // stable path so a resumed run finds its predecessor's extents.
  static std::atomic<uint64_t> instance_counter{0};
  const std::filesystem::path dir =
      options.exact_dir
          ? parent
          : parent / StringPrintf("mrmb-spill-%d-%llu",
                                  static_cast<int>(::getpid()),
                                  static_cast<unsigned long long>(
                                      instance_counter.fetch_add(1)));
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError(
        StringPrintf("cannot create spill directory %s: %s",
                     dir.string().c_str(), ec.message().c_str()));
  }
  return std::unique_ptr<SpillStore>(
      new SpillStore(options, hooks, dir.string()));
}

SpillStore::~SpillStore() {
  if (options_.durable) return;  // extents are the crash-recovery state
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);  // best-effort cleanup
}

Result<std::string> SpillStore::BuildExtentImage(
    const SpillSegment& segment, int task, int attempt,
    std::vector<StoredSpill::BlockRef>* refs, int64_t* blocks_built) {
  std::string image;
  BufferWriter writer(&image);
  std::string staged;  // a sliced partition's bytes, cut into blocks
  std::string frame;
  int64_t block_index = 0;
  for (size_t p = 0; p < segment.partitions.size(); ++p) {
    const SpillSegment::PartitionRange& range = segment.partitions[p];
    const std::string_view data =
        segment.PartitionBytes(static_cast<int>(p), &staged);
    for (int64_t off = 0; off < range.length; off += options_.block_bytes) {
      const std::string_view chunk = data.substr(
          static_cast<size_t>(off),
          static_cast<size_t>(std::min(options_.block_bytes,
                                       range.length - off)));
      // A partition that already holds a codec frame (raw_length >= 0) is
      // stored as is: compressing compressed bytes again only burns CPU.
      if (options_.block_codec == MapOutputCodec::kNone ||
          range.raw_length >= 0) {
        BlockStore(chunk, &frame);
      } else {
        MRMB_RETURN_IF_ERROR(
            BlockCompress(options_.block_codec, chunk, &frame));
      }
      if (hooks_ != nullptr) {
        hooks_->MutateBlockFrame(task, attempt, block_index, &frame);
      }
      StoredSpill::BlockRef ref;
      ref.partition = static_cast<int>(p);
      ref.file_offset = static_cast<int64_t>(image.size()) + 4;
      ref.frame_len = static_cast<int64_t>(frame.size());
      ref.raw_len = static_cast<int64_t>(chunk.size());
      refs->push_back(ref);
      writer.AppendFixed32(static_cast<uint32_t>(frame.size()));
      writer.AppendRaw(frame);
      ++block_index;
    }
  }
  if (hooks_ != nullptr && !refs->empty()) {
    const int64_t final_frame = refs->back().frame_len;
    const int64_t drop = std::clamp<int64_t>(
        hooks_->TornWriteBytes(task, attempt, final_frame), 0, final_frame);
    // erase: GCC 12 -O3 warns -Wrestrict on resize's (unreachable) grow.
    if (drop > 0) image.erase(image.size() - static_cast<size_t>(drop));
  }
  *blocks_built = block_index;
  return image;
}

Status SpillStore::WriteExtentFile(const std::string& tmp_path,
                                   const std::string& image) {
  const int fd =
      ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError(ErrnoMessage("open", tmp_path));
  }
  Status status = Status::OK();
  size_t off = 0;
  while (off < image.size()) {
    const size_t len = std::min(kWriteSliceBytes, image.size() - off);
    if (hooks_ != nullptr) {
      status = hooks_->BeforeExtentWrite(
          bytes_written_.load(std::memory_order_relaxed) +
              static_cast<int64_t>(off),
          len);
      if (!status.ok()) break;
    }
    const ssize_t n = ::write(fd, image.data() + off, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      status = errno == ENOSPC
                   ? Status::ResourceExhausted(ErrnoMessage("write", tmp_path))
                   : Status::IOError(ErrnoMessage("write", tmp_path));
      break;
    }
    if (n == 0) {
      status = Status::IOError("extent write made no progress: " + tmp_path);
      break;
    }
    off += static_cast<size_t>(n);  // short writes simply continue the loop
  }
  // Durable extents must hit the platter before the seal rename publishes
  // them — a resume that adopts an unsynced extent would read air.
  if (status.ok() && options_.durable && ::fsync(fd) != 0) {
    status = Status::IOError(ErrnoMessage("fsync", tmp_path));
  }
  ::close(fd);
  return status;
}

Result<std::shared_ptr<const StoredSpill>> SpillStore::Put(
    const SpillSegment& segment, int task, int attempt) {
  if (!segment.sealed) {
    return Status::FailedPrecondition(
        "spill store requires a sealed segment");
  }
  std::vector<StoredSpill::BlockRef> refs;
  int64_t blocks_built = 0;
  MRMB_ASSIGN_OR_RETURN(
      std::string image,
      BuildExtentImage(segment, task, attempt, &refs, &blocks_built));
  const uint64_t id = next_extent_.fetch_add(1);
  const std::string final_path =
      dir_ + "/extent-" + std::to_string(id) + ".spill";
  const std::string tmp_path = dir_ + "/extent-" + std::to_string(id) + ".tmp";
  Status write = WriteExtentFile(tmp_path, image);
  if (write.ok() && ::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    write = Status::IOError(ErrnoMessage("rename", tmp_path));
  }
  if (!write.ok()) {
    ::unlink(tmp_path.c_str());
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.write_failures;
    return write;
  }
  // O_RDWR: the read path writes repaired frames back in place.
  const int fd = ::open(final_path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) {
    ::unlink(final_path.c_str());
    return Status::IOError(ErrnoMessage("open", final_path));
  }
  void* map = nullptr;
  if (options_.use_mmap && !image.empty()) {
    map = ::mmap(nullptr, image.size(), PROT_READ, MAP_SHARED, fd, 0);
    if (map == MAP_FAILED) map = nullptr;  // fall back to pread
  }
  std::shared_ptr<StoredSpill> spill(new StoredSpill());
  spill->store_ = this;
  spill->extent_id_ = id;
  spill->path_ = final_path;
  spill->fd_ = fd;
  spill->map_ = map;
  spill->file_bytes_ = static_cast<int64_t>(image.size());
  spill->logical_bytes_ = segment.total_bytes();
  spill->task_ = task;
  spill->attempt_ = attempt;
  spill->partitions_ = segment.partitions;
  spill->blocks_ = std::move(refs);
  bytes_written_.fetch_add(static_cast<int64_t>(image.size()),
                           std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.extents_written;
    stats_.blocks_written += blocks_built;
    stats_.bytes_written += static_cast<int64_t>(image.size());
    stats_.logical_bytes += segment.total_bytes();
  }
  if (options_.scrub_after_seal) {
    MRMB_ASSIGN_OR_RETURN(ScrubReport report, Scrub(*spill));
    if (report.lost > 0) {
      return Status::DataLoss(StringPrintf(
          "extent for task %d attempt %d failed its post-seal scrub: %lld of "
          "%lld blocks unrecoverable",
          task, attempt, static_cast<long long>(report.lost),
          static_cast<long long>(report.blocks)));
    }
  }
  return std::shared_ptr<const StoredSpill>(std::move(spill));
}

Result<std::shared_ptr<const StoredSpill>> SpillStore::Adopt(
    const AdoptSpec& spec) {
  // Extent ids come from the file name so a resumed store's counter never
  // collides with its predecessor's surviving extents.
  constexpr std::string_view kPrefix = "extent-";
  constexpr std::string_view kSuffix = ".spill";
  uint64_t id = 0;
  bool parsed = spec.file_name.size() > kPrefix.size() + kSuffix.size() &&
                spec.file_name.compare(0, kPrefix.size(), kPrefix) == 0 &&
                spec.file_name.compare(
                    spec.file_name.size() - kSuffix.size(), kSuffix.size(),
                    kSuffix) == 0;
  if (parsed) {
    const std::string digits = spec.file_name.substr(
        kPrefix.size(),
        spec.file_name.size() - kPrefix.size() - kSuffix.size());
    parsed = !digits.empty();
    for (const char c : digits) parsed = parsed && c >= '0' && c <= '9';
    if (parsed) id = std::stoull(digits);
  }
  if (!parsed) {
    return Status::InvalidArgument("not a spill extent file name: " +
                                   spec.file_name);
  }
  const std::string path = dir_ + "/" + spec.file_name;
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) {
    return Status::DataLoss(ErrnoMessage("open", path));
  }
  std::string contents;
  char buf[1 << 16];
  Status status = Status::OK();
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      status = Status::IOError(ErrnoMessage("read", path));
      break;
    }
    if (n == 0) break;
    contents.append(buf, static_cast<size_t>(n));
  }
  if (status.ok() &&
      static_cast<int64_t>(contents.size()) != spec.file_bytes) {
    status = Status::DataLoss(StringPrintf(
        "extent %s is %zu bytes, manifest says %lld", path.c_str(),
        contents.size(), static_cast<long long>(spec.file_bytes)));
  }
  // Walk the self-describing frames, assigning each block to the manifest
  // partition whose byte budget it falls in. Blocks never straddle
  // partitions, so the cumulative raw size must land exactly on every
  // partition boundary.
  std::vector<StoredSpill::BlockRef> refs;
  if (status.ok()) {
    const std::string_view view(contents);
    size_t offset = 0;
    size_t partition = 0;
    int64_t partition_raw = 0;  // raw bytes consumed of the current partition
    while (partition < spec.partitions.size() &&
           spec.partitions[partition].length == 0) {
      ++partition;
    }
    while (status.ok() && offset < view.size()) {
      uint32_t frame_len = 0;
      BufferReader reader(view.substr(offset, 4));
      if (offset + 4 > view.size() || !reader.ReadFixed32(&frame_len).ok() ||
          frame_len < kCodecFrameHeaderSize ||
          offset + 4 + frame_len > view.size()) {
        status = Status::DataLoss(StringPrintf(
            "extent %s has a torn or invalid frame at offset %zu",
            path.c_str(), offset));
        break;
      }
      Result<size_t> raw =
          CodecFrameRawSize(view.substr(offset + 4, frame_len));
      if (!raw.ok()) {
        status = raw.status();
        break;
      }
      if (partition >= spec.partitions.size()) {
        status = Status::DataLoss("extent holds more frames than the "
                                  "manifest's partitions account for");
        break;
      }
      StoredSpill::BlockRef ref;
      ref.partition = static_cast<int>(partition);
      ref.file_offset = static_cast<int64_t>(offset) + 4;
      ref.frame_len = static_cast<int64_t>(frame_len);
      ref.raw_len = static_cast<int64_t>(*raw);
      refs.push_back(ref);
      partition_raw += ref.raw_len;
      offset += 4 + frame_len;
      if (partition_raw > spec.partitions[partition].length) {
        status = Status::DataLoss(StringPrintf(
            "extent %s partition %zu overruns its manifest length",
            path.c_str(), partition));
        break;
      }
      if (partition_raw == spec.partitions[partition].length) {
        partition_raw = 0;
        ++partition;
        while (partition < spec.partitions.size() &&
               spec.partitions[partition].length == 0) {
          ++partition;
        }
      }
    }
    if (status.ok() && partition != spec.partitions.size()) {
      status = Status::DataLoss(StringPrintf(
          "extent %s ends mid-partition (%zu of %zu complete)", path.c_str(),
          partition, spec.partitions.size()));
    }
  }
  if (!status.ok()) {
    ::close(fd);
    return status;
  }
  void* map = nullptr;
  if (options_.use_mmap && !contents.empty()) {
    map = ::mmap(nullptr, contents.size(), PROT_READ, MAP_SHARED, fd, 0);
    if (map == MAP_FAILED) map = nullptr;  // fall back to pread
  }
  std::shared_ptr<StoredSpill> spill(new StoredSpill());
  spill->store_ = this;
  spill->extent_id_ = id;
  spill->path_ = path;
  spill->fd_ = fd;
  spill->map_ = map;
  spill->file_bytes_ = static_cast<int64_t>(contents.size());
  spill->logical_bytes_ = spec.logical_bytes;
  spill->task_ = spec.task;
  spill->attempt_ = spec.attempt;
  spill->partitions_ = spec.partitions;
  spill->blocks_ = std::move(refs);
  // Keep fresh Puts clear of every adopted id.
  uint64_t cur = next_extent_.load(std::memory_order_relaxed);
  while (cur <= id &&
         !next_extent_.compare_exchange_weak(cur, id + 1,
                                             std::memory_order_relaxed)) {
  }
  return std::shared_ptr<const StoredSpill>(std::move(spill));
}

Status SpillStore::ReadFrameBytes(const StoredSpill& spill,
                                  const StoredSpill::BlockRef& ref,
                                  int64_t block_index,
                                  std::string* frame) const {
  // A torn tail write can leave the final frame short of its length prefix;
  // read what exists and let the decoder classify the damage.
  const int64_t avail = std::max<int64_t>(
      0, std::min(ref.frame_len, spill.file_bytes_ - ref.file_offset));
  frame->assign(static_cast<size_t>(avail), '\0');
  if (avail == 0) return Status::OK();
  if (spill.map_ != nullptr) {
    std::memcpy(frame->data(),
                static_cast<const char*>(spill.map_) + ref.file_offset,
                static_cast<size_t>(avail));
    return Status::OK();
  }
  int64_t injected_errors = 0;
  int64_t injected_shorts = 0;
  Status status = Status::OK();
  for (int attempt = 0; attempt < kMaxReadAttempts; ++attempt) {
    if (hooks_ != nullptr &&
        hooks_->InjectReadError(spill.task_, spill.attempt_, block_index,
                                attempt)) {
      ++injected_errors;
      status = Status::IOError(StringPrintf(
          "injected EIO reading block %lld of %s",
          static_cast<long long>(block_index), spill.path_.c_str()));
      continue;
    }
    bool inject_short =
        hooks_ != nullptr &&
        hooks_->InjectShortRead(spill.task_, spill.attempt_, block_index);
    status = Status::OK();
    int64_t done = 0;
    while (done < avail) {
      int64_t want = avail - done;
      if (inject_short && want > 1) want = want / 2;
      const ssize_t n = ::pread(spill.fd_, frame->data() + done,
                                static_cast<size_t>(want),
                                ref.file_offset + done);
      if (n < 0) {
        if (errno == EINTR) continue;
        status = Status::IOError(ErrnoMessage("pread", spill.path_));
        break;
      }
      if (n == 0) break;  // unexpected EOF; surfaces as a short frame
      if (n < avail - done) ++injected_shorts;
      inject_short = false;
      done += n;
    }
    if (status.ok()) {
      if (done < avail) frame->resize(static_cast<size_t>(done));
      break;
    }
  }
  if (injected_errors > 0 || injected_shorts > 0) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.read_errors += injected_errors;
    stats_.short_reads += injected_shorts;
  }
  return status;
}

Result<std::shared_ptr<const std::string>> SpillStore::LoadBlock(
    const StoredSpill& spill, int64_t block_index, bool* repaired) const {
  if (repaired != nullptr) *repaired = false;
  const StoredSpill::BlockRef& ref =
      spill.blocks_[static_cast<size_t>(block_index)];
  std::string frame;
  MRMB_RETURN_IF_ERROR(ReadFrameBytes(spill, ref, block_index, &frame));
  auto payload = std::make_shared<std::string>();
  Status decode = BlockDecompress(frame, payload.get());
  if (decode.ok() &&
      static_cast<int64_t>(payload->size()) != ref.raw_len) {
    decode = Status::DataLoss(StringPrintf(
        "block %lld decoded to %zu bytes, index says %lld",
        static_cast<long long>(block_index), payload->size(),
        static_cast<long long>(ref.raw_len)));
  }
  if (decode.ok()) {
    return std::shared_ptr<const std::string>(std::move(payload));
  }
  // Damage on the frame. A complete frame gets the single-bit repair
  // attempt; a short one (torn write) cannot be reconstructed from a CRC.
  Status fix = static_cast<int64_t>(frame.size()) == ref.frame_len
                   ? RepairCodecFrameSingleBitFlip(&frame)
                   : Status::DataLoss("frame is truncated on disk");
  if (fix.ok()) fix = BlockDecompress(frame, payload.get());
  if (fix.ok() && static_cast<int64_t>(payload->size()) != ref.raw_len) {
    fix = Status::DataLoss("repaired block decoded to the wrong size");
  }
  if (fix.ok()) {
    // Heal the extent in place; a failed write-back is not fatal — the
    // payload is good, and the next reader simply repairs again.
    size_t done = 0;
    while (done < frame.size()) {
      const ssize_t n = ::pwrite(spill.fd_, frame.data() + done,
                                 frame.size() - done,
                                 ref.file_offset + static_cast<int64_t>(done));
      if (n <= 0) break;
      done += static_cast<size_t>(n);
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.blocks_repaired;
    }
    if (repaired != nullptr) *repaired = true;
    return std::shared_ptr<const std::string>(std::move(payload));
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.blocks_lost;
  }
  return Status::DataLoss(StringPrintf(
      "block %lld of extent for task %d attempt %d is unrecoverable: %s",
      static_cast<long long>(block_index), spill.task_, spill.attempt_,
      decode.message().c_str()));
}

Result<std::shared_ptr<const std::string>> SpillStore::GetBlock(
    const StoredSpill& spill, int64_t block_index) const {
  if (cache_ == nullptr) return LoadBlock(spill, block_index);
  std::shared_ptr<const std::string> hit =
      cache_->Get(spill.extent_id_, block_index);
  if (hit != nullptr) return hit;
  MRMB_ASSIGN_OR_RETURN(std::shared_ptr<const std::string> payload,
                        LoadBlock(spill, block_index));
  cache_->Put(spill.extent_id_, block_index, payload);
  return payload;
}

Result<ScrubReport> SpillStore::Scrub(const StoredSpill& spill) {
  ScrubReport report;
  for (size_t i = 0; i < spill.blocks_.size(); ++i) {
    bool repaired = false;
    Result<std::shared_ptr<const std::string>> payload =
        LoadBlock(spill, static_cast<int64_t>(i), &repaired);
    ++report.blocks;
    if (repaired) ++report.repaired;
    if (!payload.ok()) {
      // Persistent I/O errors abort the pass (nothing to conclude about the
      // bytes); data loss is what the scrub exists to find — count it and
      // keep going.
      if (payload.status().code() == StatusCode::kIOError) {
        return payload.status();
      }
      ++report.lost;
      continue;
    }
    // Scrubbing doubles as cache warm-up: freshly verified blocks are what
    // the merge/fetch path is about to want.
    if (cache_ != nullptr) {
      cache_->Put(spill.extent_id_, static_cast<int64_t>(i), *payload);
    }
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.scrubbed_blocks += report.blocks;
  return report;
}

void SpillStore::ReleaseExtent(StoredSpill* spill) {
  if (spill->map_ != nullptr) {
    ::munmap(spill->map_, static_cast<size_t>(spill->file_bytes_));
    spill->map_ = nullptr;
  }
  if (spill->fd_ >= 0) {
    ::close(spill->fd_);
    spill->fd_ = -1;
  }
  // Durable extents stay on disk for resume; the runner garbage-collects
  // them once the job commits (or the next resume sweeps the unreferenced).
  if (!options_.durable && !spill->path_.empty()) {
    ::unlink(spill->path_.c_str());
  }
  if (cache_ != nullptr) cache_->EraseExtent(spill->extent_id_);
}

SpillStoreStats SpillStore::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  SpillStoreStats snapshot = stats_;
  if (cache_ != nullptr) {
    snapshot.cache_hits = cache_->hits();
    snapshot.cache_misses = cache_->misses();
    snapshot.cache_evictions = cache_->evictions();
  }
  return snapshot;
}

Result<int64_t> RecoverExtentFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError(ErrnoMessage("open", path));
  }
  std::string contents;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = Status::IOError(ErrnoMessage("read", path));
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    contents.append(buf, static_cast<size_t>(n));
  }
  // Walk the length-prefixed frames; the first missing, truncated, or
  // CRC-invalid frame marks where the crash landed.
  const std::string_view view(contents);
  size_t offset = 0;
  int64_t kept = 0;
  while (offset + 4 <= view.size()) {
    BufferReader reader(view.substr(offset, 4));
    uint32_t frame_len = 0;
    if (!reader.ReadFixed32(&frame_len).ok()) break;
    if (frame_len < kCodecFrameHeaderSize ||
        offset + 4 + frame_len > view.size()) {
      break;
    }
    if (!CodecFrameRawSize(view.substr(offset + 4, frame_len)).ok()) break;
    offset += 4 + frame_len;
    ++kept;
  }
  Status status = Status::OK();
  if (::ftruncate(fd, static_cast<off_t>(offset)) != 0) {
    status = Status::IOError(ErrnoMessage("ftruncate", path));
  }
  ::close(fd);
  MRMB_RETURN_IF_ERROR(status);
  return kept;
}

}  // namespace mrmb

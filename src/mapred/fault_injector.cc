#include "mapred/fault_injector.h"

#include <cstdlib>

#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"

namespace mrmb {

namespace {

// RNG stream ids, one per hazard kind, so drawing from one never perturbs
// another.
constexpr uint64_t kMapFailStream = 1;
constexpr uint64_t kReduceFailStream = 2;
constexpr uint64_t kCorruptStream = 3;
constexpr uint64_t kBlockCorruptStream = 4;
constexpr uint64_t kShortReadStream = 5;
constexpr uint64_t kEioStream = 6;
constexpr uint64_t kTornWriteStream = 7;
constexpr uint64_t kSlowPeerStream = 8;

// Mixed into StreamSeed for per-block (and per-retry) decisions.
constexpr uint64_t kBlockSalt = 0xd6e8feb86659fd93ULL;
constexpr uint64_t kRetrySalt = 0x2545f4914f6cdd1dULL;

// Seed for the (stream, task, attempt) decision; Rng::Reseed splitmixes it,
// so nearby inputs give unrelated streams.
uint64_t StreamSeed(uint64_t seed, uint64_t stream, int task, int attempt) {
  return seed ^ (stream * 0x9e3779b97f4a7c15ULL) ^
         (static_cast<uint64_t>(task) * 0xbf58476d1ce4e5b9ULL) ^
         (static_cast<uint64_t>(attempt) * 0x94d049bb133111ebULL);
}

Result<int64_t> ParseIntField(const std::string& token,
                              const std::string& text, const char* what) {
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0' || v < 0) {
    return Status::InvalidArgument("'" + token + "': bad " +
                                   std::string(what) + " '" + text + "'");
  }
  return static_cast<int64_t>(v);
}

// Parses "TASK@a=ATTEMPT[,extra]"; `extra` receives anything after the
// comma, empty when absent.
Status ParseTaskAttempt(const std::string& token, const std::string& body,
                        int* task, int* attempt, std::string* extra) {
  const size_t at = body.find("@a=");
  if (at == std::string::npos) {
    return Status::InvalidArgument("'" + token + "': expected TASK@a=ATTEMPT");
  }
  MRMB_ASSIGN_OR_RETURN(const int64_t task_v,
                        ParseIntField(token, body.substr(0, at), "task"));
  *task = static_cast<int>(task_v);
  std::string attempt_text = body.substr(at + 3);
  const size_t comma = attempt_text.find(',');
  if (comma != std::string::npos) {
    *extra = std::string(StripWhitespace(attempt_text.substr(comma + 1)));
    attempt_text = attempt_text.substr(0, comma);
  } else {
    extra->clear();
  }
  MRMB_ASSIGN_OR_RETURN(const int64_t attempt_v,
                        ParseIntField(token, attempt_text, "attempt"));
  *attempt = static_cast<int>(attempt_v);
  return Status::OK();
}

}  // namespace

const char* LocalFaultKindName(LocalFaultKind kind) {
  switch (kind) {
    case LocalFaultKind::kFailMap:
      return "fail_map";
    case LocalFaultKind::kFailReduce:
      return "fail_reduce";
    case LocalFaultKind::kCorruptMap:
      return "corrupt_map";
    case LocalFaultKind::kDelayMap:
      return "delay_map";
    case LocalFaultKind::kDelayReduce:
      return "delay_reduce";
    case LocalFaultKind::kCorruptBlock:
      return "corrupt_block";
    case LocalFaultKind::kTornWrite:
      return "torn_write";
    case LocalFaultKind::kDropConn:
      return "drop_conn";
    case LocalFaultKind::kTruncFrame:
      return "trunc_frame";
  }
  return "unknown";
}

const char* CrashEventName(CrashEvent event) {
  switch (event) {
    case CrashEvent::kJobStart:
      return "job_start";
    case CrashEvent::kMapCommit:
      return "map_commit";
    case CrashEvent::kReduceCommit:
      return "reduce_commit";
    case CrashEvent::kJobCommit:
      return "job_commit";
  }
  return "unknown";
}

Result<CrashEvent> CrashEventByName(const std::string& name) {
  const std::string key = ToLower(name);
  if (key == "job_start") return CrashEvent::kJobStart;
  if (key == "map_commit") return CrashEvent::kMapCommit;
  if (key == "reduce_commit") return CrashEvent::kReduceCommit;
  if (key == "job_commit") return CrashEvent::kJobCommit;
  return Status::InvalidArgument(
      "unknown crash event '" + name +
      "' (accepted: job_start, map_commit, reduce_commit, job_commit)");
}

Status LocalFaultPlan::Validate() const {
  for (const LocalFaultEvent& event : events) {
    if (event.task < 0 || event.attempt < 0) {
      return Status::InvalidArgument(
          "local fault task/attempt must be >= 0");
    }
    if (event.kind == LocalFaultKind::kCorruptMap && event.partition < 0) {
      return Status::InvalidArgument("corrupt_map partition must be >= 0");
    }
    if ((event.kind == LocalFaultKind::kDelayMap ||
         event.kind == LocalFaultKind::kDelayReduce) &&
        event.delay_ms <= 0) {
      return Status::InvalidArgument("delay_ms must be > 0");
    }
    if (event.kind == LocalFaultKind::kCorruptBlock) {
      if (event.block < 0) {
        return Status::InvalidArgument("corrupt_block block must be >= 0");
      }
      if (event.bits < 1 || event.bits > 64) {
        return Status::InvalidArgument(
            "corrupt_block bit count must be in [1, 64]");
      }
    }
  }
  if (map_failure_prob < 0 || map_failure_prob >= 1.0 ||
      reduce_failure_prob < 0 || reduce_failure_prob >= 1.0) {
    return Status::InvalidArgument(
        "local failure probabilities must be in [0, 1)");
  }
  if (short_read_prob < 0 || short_read_prob >= 1.0 || eio_prob < 0 ||
      eio_prob >= 1.0) {
    return Status::InvalidArgument(
        "I/O fault probabilities must be in [0, 1)");
  }
  if (slow_peer_prob < 0 || slow_peer_prob >= 1.0) {
    return Status::InvalidArgument("slow_peer must be in [0, 1)");
  }
  if (enospc_after_bytes < -1) {
    return Status::InvalidArgument(
        "enospc_after_bytes must be >= 0 (or -1 to disable)");
  }
  for (const CrashPoint& point : crash_points) {
    if (point.occurrence < 0) {
      return Status::InvalidArgument("crash_at occurrence must be >= 0");
    }
  }
  return Status::OK();
}

bool LocalFaultPlan::CrashesAt(CrashEvent event, int64_t occurrence) const {
  for (const CrashPoint& point : crash_points) {
    if (point.event == event && point.occurrence == occurrence) return true;
  }
  return false;
}

std::string LocalFaultPlan::ToString() const {
  std::string out;
  auto append = [&out](const std::string& piece) {
    if (!out.empty()) out += ";";
    out += piece;
  };
  for (const LocalFaultEvent& event : events) {
    std::string piece = StringPrintf("%s:%d@a=%d", LocalFaultKindName(event.kind),
                                     event.task, event.attempt);
    if (event.kind == LocalFaultKind::kCorruptMap) {
      piece += StringPrintf(",p=%d", event.partition);
    } else if (event.kind == LocalFaultKind::kDelayMap ||
               event.kind == LocalFaultKind::kDelayReduce) {
      piece += StringPrintf(",ms=%lld",
                            static_cast<long long>(event.delay_ms));
    } else if (event.kind == LocalFaultKind::kCorruptBlock) {
      piece += StringPrintf(",b=%lld", static_cast<long long>(event.block));
      if (event.bits != 1) piece += StringPrintf(",n=%d", event.bits);
    }
    append(piece);
  }
  if (map_failure_prob > 0) {
    append(StringPrintf("map_fail_prob:%g", map_failure_prob));
  }
  if (reduce_failure_prob > 0) {
    append(StringPrintf("reduce_fail_prob:%g", reduce_failure_prob));
  }
  if (short_read_prob > 0) {
    append(StringPrintf("short_read:%g", short_read_prob));
  }
  if (eio_prob > 0) {
    append(StringPrintf("eio_prob:%g", eio_prob));
  }
  if (enospc_after_bytes >= 0) {
    append(StringPrintf("enospc_after_bytes:%lld",
                        static_cast<long long>(enospc_after_bytes)));
  }
  if (slow_peer_prob > 0) {
    append(StringPrintf("slow_peer:%g", slow_peer_prob));
  }
  for (const CrashPoint& point : crash_points) {
    append(StringPrintf("crash_at:%s@%lld", CrashEventName(point.event),
                        static_cast<long long>(point.occurrence)));
  }
  return out;
}

Result<LocalFaultPlan> LocalFaultPlan::Parse(const std::string& spec) {
  LocalFaultPlan plan;
  for (const std::string& raw : SplitString(spec, ';')) {
    const std::string token = std::string(StripWhitespace(raw));
    if (token.empty()) continue;
    const size_t colon = token.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("local fault token '" + token +
                                     "' has no ':'");
    }
    const std::string kind = ToLower(token.substr(0, colon));
    const std::string body = token.substr(colon + 1);
    if (kind == "map_fail_prob" || kind == "reduce_fail_prob" ||
        kind == "short_read" || kind == "eio_prob" || kind == "slow_peer") {
      char* end = nullptr;
      const double v = std::strtod(body.c_str(), &end);
      if (body.empty() || end == nullptr || *end != '\0') {
        return Status::InvalidArgument(kind + " expects a probability, got '" +
                                       body + "'");
      }
      if (kind == "map_fail_prob") {
        plan.map_failure_prob = v;
      } else if (kind == "reduce_fail_prob") {
        plan.reduce_failure_prob = v;
      } else if (kind == "short_read") {
        plan.short_read_prob = v;
      } else if (kind == "slow_peer") {
        plan.slow_peer_prob = v;
      } else {
        plan.eio_prob = v;
      }
      continue;
    }
    if (kind == "enospc_after_bytes") {
      MRMB_ASSIGN_OR_RETURN(plan.enospc_after_bytes,
                            ParseIntField(token, body, "byte threshold"));
      continue;
    }
    if (kind == "crash_at") {
      const size_t at = body.find('@');
      if (at == std::string::npos) {
        return Status::InvalidArgument("'" + token +
                                       "': expected crash_at:EVENT@N");
      }
      CrashPoint point;
      MRMB_ASSIGN_OR_RETURN(point.event,
                            CrashEventByName(body.substr(0, at)));
      MRMB_ASSIGN_OR_RETURN(
          point.occurrence,
          ParseIntField(token, body.substr(at + 1), "occurrence"));
      plan.crash_points.push_back(point);
      continue;
    }
    LocalFaultEvent event;
    if (kind == "fail_map") {
      event.kind = LocalFaultKind::kFailMap;
    } else if (kind == "fail_reduce") {
      event.kind = LocalFaultKind::kFailReduce;
    } else if (kind == "corrupt_map") {
      event.kind = LocalFaultKind::kCorruptMap;
    } else if (kind == "delay_map") {
      event.kind = LocalFaultKind::kDelayMap;
    } else if (kind == "delay_reduce") {
      event.kind = LocalFaultKind::kDelayReduce;
    } else if (kind == "corrupt_block") {
      event.kind = LocalFaultKind::kCorruptBlock;
    } else if (kind == "torn_write") {
      event.kind = LocalFaultKind::kTornWrite;
    } else if (kind == "drop_conn") {
      event.kind = LocalFaultKind::kDropConn;
    } else if (kind == "trunc_frame") {
      event.kind = LocalFaultKind::kTruncFrame;
    } else {
      return Status::InvalidArgument(
          "unknown local fault kind '" + kind +
          "' (accepted: fail_map, fail_reduce, corrupt_map, delay_map, "
          "delay_reduce, corrupt_block, torn_write, drop_conn, trunc_frame, "
          "short_read, eio_prob, enospc_after_bytes, map_fail_prob, "
          "reduce_fail_prob, slow_peer, crash_at)");
    }
    std::string extra;
    MRMB_RETURN_IF_ERROR(
        ParseTaskAttempt(token, body, &event.task, &event.attempt, &extra));
    if (event.kind == LocalFaultKind::kCorruptMap) {
      if (extra.rfind("p=", 0) != 0) {
        return Status::InvalidArgument("'" + token +
                                       "': corrupt_map needs a ,p=PARTITION "
                                       "suffix");
      }
      MRMB_ASSIGN_OR_RETURN(
          const int64_t partition,
          ParseIntField(token, extra.substr(2), "partition"));
      event.partition = static_cast<int>(partition);
    } else if (event.kind == LocalFaultKind::kDelayMap ||
               event.kind == LocalFaultKind::kDelayReduce) {
      if (extra.rfind("ms=", 0) != 0) {
        return Status::InvalidArgument(
            "'" + token + "': delay needs a ,ms=MILLIS suffix");
      }
      MRMB_ASSIGN_OR_RETURN(event.delay_ms,
                            ParseIntField(token, extra.substr(3), "delay"));
    } else if (event.kind == LocalFaultKind::kCorruptBlock) {
      // extra is "b=BLOCK" optionally followed by ",n=BITS".
      if (extra.rfind("b=", 0) != 0) {
        return Status::InvalidArgument(
            "'" + token + "': corrupt_block needs a ,b=BLOCK suffix");
      }
      std::string block_text = extra.substr(2);
      const size_t comma = block_text.find(',');
      if (comma != std::string::npos) {
        const std::string bits_text =
            std::string(StripWhitespace(block_text.substr(comma + 1)));
        block_text = block_text.substr(0, comma);
        if (bits_text.rfind("n=", 0) != 0) {
          return Status::InvalidArgument(
              "'" + token + "': corrupt_block takes only an ,n=BITS suffix");
        }
        MRMB_ASSIGN_OR_RETURN(
            const int64_t bits,
            ParseIntField(token, bits_text.substr(2), "bit count"));
        event.bits = static_cast<int>(bits);
      }
      MRMB_ASSIGN_OR_RETURN(event.block,
                            ParseIntField(token, block_text, "block"));
    } else if (!extra.empty()) {
      return Status::InvalidArgument("'" + token + "': unexpected ',' suffix");
    }
    plan.events.push_back(event);
  }
  MRMB_RETURN_IF_ERROR(plan.Validate());
  return plan;
}

LocalFaultInjector::LocalFaultInjector(LocalFaultPlan plan, uint64_t seed)
    : plan_(std::move(plan)), seed_(seed) {}

bool LocalFaultInjector::HazardFires(uint64_t stream, double prob, int task,
                                     int attempt) const {
  if (prob <= 0) return false;
  Rng rng(StreamSeed(seed_, stream, task, attempt));
  return rng.Bernoulli(prob);
}

bool LocalFaultInjector::ShouldFailMap(int task, int attempt) const {
  for (const LocalFaultEvent& event : plan_.events) {
    if (event.kind == LocalFaultKind::kFailMap && event.task == task &&
        event.attempt == attempt) {
      return true;
    }
  }
  return HazardFires(kMapFailStream, plan_.map_failure_prob, task, attempt);
}

bool LocalFaultInjector::ShouldFailReduce(int task, int attempt) const {
  for (const LocalFaultEvent& event : plan_.events) {
    if (event.kind == LocalFaultKind::kFailReduce && event.task == task &&
        event.attempt == attempt) {
      return true;
    }
  }
  return HazardFires(kReduceFailStream, plan_.reduce_failure_prob, task,
                     attempt);
}

int64_t LocalFaultInjector::MapDelayMs(int task, int attempt) const {
  int64_t total = 0;
  for (const LocalFaultEvent& event : plan_.events) {
    if (event.kind == LocalFaultKind::kDelayMap && event.task == task &&
        event.attempt == attempt) {
      total += event.delay_ms;
    }
  }
  return total;
}

int64_t LocalFaultInjector::ReduceDelayMs(int task, int attempt) const {
  int64_t total = 0;
  for (const LocalFaultEvent& event : plan_.events) {
    if (event.kind == LocalFaultKind::kDelayReduce && event.task == task &&
        event.attempt == attempt) {
      total += event.delay_ms;
    }
  }
  return total;
}

bool LocalFaultInjector::MaybeCorruptMapOutput(int task, int attempt,
                                               SpillSegment* segment) const {
  MRMB_CHECK(segment != nullptr);
  bool corrupted = false;
  for (const LocalFaultEvent& event : plan_.events) {
    if (event.kind != LocalFaultKind::kCorruptMap || event.task != task ||
        event.attempt != attempt) {
      continue;
    }
    if (static_cast<size_t>(event.partition) >= segment->partitions.size()) {
      continue;
    }
    const SpillSegment::PartitionRange& range =
        segment->partitions[static_cast<size_t>(event.partition)];
    if (range.length <= 0) continue;  // nothing to flip
    Rng rng(StreamSeed(seed_, kCorruptStream, task, attempt));
    size_t at = static_cast<size_t>(
        rng.Uniform(static_cast<uint64_t>(range.length)));
    const int bit = static_cast<int>(rng.Uniform(8));
    const char flip = static_cast<char>(1 << bit);
    if (!segment->sliced()) {
      segment->data[static_cast<size_t>(range.offset) + at] ^= flip;
    } else {
      // The same byte of the partition's merge-order bytes, in the spill
      // buffer that holds it.
      for (const SpillSegment::Slice& slice :
           segment->slices[static_cast<size_t>(event.partition)]) {
        if (at < slice.length) {
          segment->buffers[slice.buffer][slice.offset + at] ^= flip;
          break;
        }
        at -= slice.length;
      }
    }
    corrupted = true;
  }
  return corrupted;
}

bool LocalFaultInjector::DropConnAt(int map, int64_t fetch_seq) const {
  for (const LocalFaultEvent& event : plan_.events) {
    if (event.kind == LocalFaultKind::kDropConn && event.task == map &&
        static_cast<int64_t>(event.attempt) == fetch_seq) {
      return true;
    }
  }
  return false;
}

bool LocalFaultInjector::TruncFrameAt(int map, int64_t fetch_seq) const {
  for (const LocalFaultEvent& event : plan_.events) {
    if (event.kind == LocalFaultKind::kTruncFrame && event.task == map &&
        static_cast<int64_t>(event.attempt) == fetch_seq) {
      return true;
    }
  }
  return false;
}

int64_t LocalFaultInjector::SlowPeerDelayMs(int map, int64_t fetch_seq) const {
  if (plan_.slow_peer_prob <= 0) return 0;
  Rng rng(StreamSeed(seed_, kSlowPeerStream, map,
                     static_cast<int>(fetch_seq)));
  // A fixed straggler pause: long enough to dominate a loopback fetch, short
  // enough that CI fault runs stay fast.
  return rng.Bernoulli(plan_.slow_peer_prob) ? 25 : 0;
}

LocalSpillIoHooks::LocalSpillIoHooks(LocalFaultPlan plan, uint64_t seed)
    : plan_(std::move(plan)), seed_(seed) {}

Status LocalSpillIoHooks::BeforeExtentWrite(int64_t store_bytes, size_t len) {
  if (plan_.enospc_after_bytes < 0) return Status::OK();
  if (store_bytes + static_cast<int64_t>(len) <= plan_.enospc_after_bytes) {
    return Status::OK();
  }
  return Status::ResourceExhausted(StringPrintf(
      "injected ENOSPC: spill store is %lld bytes into its %lld-byte device",
      static_cast<long long>(store_bytes),
      static_cast<long long>(plan_.enospc_after_bytes)));
}

void LocalSpillIoHooks::MutateBlockFrame(int task, int attempt, int64_t block,
                                         std::string* frame) {
  if (frame->empty()) return;
  for (const LocalFaultEvent& event : plan_.events) {
    if (event.kind != LocalFaultKind::kCorruptBlock || event.task != task ||
        event.attempt != attempt || event.block != block) {
      continue;
    }
    Rng rng(StreamSeed(seed_, kBlockCorruptStream, task, attempt) ^
            (static_cast<uint64_t>(block) * kBlockSalt));
    for (int i = 0; i < event.bits; ++i) {
      const size_t offset =
          static_cast<size_t>(rng.Uniform(frame->size()));
      const int bit = static_cast<int>(rng.Uniform(8));
      (*frame)[offset] ^= static_cast<char>(1 << bit);
    }
  }
}

int64_t LocalSpillIoHooks::TornWriteBytes(int task, int attempt,
                                          int64_t final_frame_bytes) {
  if (final_frame_bytes <= 0) return 0;
  for (const LocalFaultEvent& event : plan_.events) {
    if (event.kind != LocalFaultKind::kTornWrite || event.task != task ||
        event.attempt != attempt) {
      continue;
    }
    Rng rng(StreamSeed(seed_, kTornWriteStream, task, attempt));
    // Drop between one byte and the whole final frame.
    return 1 + static_cast<int64_t>(
                   rng.Uniform(static_cast<uint64_t>(final_frame_bytes)));
  }
  return 0;
}

bool LocalSpillIoHooks::InjectShortRead(int task, int attempt,
                                        int64_t block) {
  if (plan_.short_read_prob <= 0) return false;
  Rng rng(StreamSeed(seed_, kShortReadStream, task, attempt) ^
          (static_cast<uint64_t>(block) * kBlockSalt));
  return rng.Bernoulli(plan_.short_read_prob);
}

bool LocalSpillIoHooks::InjectReadError(int task, int attempt, int64_t block,
                                        int retry) {
  if (plan_.eio_prob <= 0) return false;
  Rng rng(StreamSeed(seed_, kEioStream, task, attempt) ^
          (static_cast<uint64_t>(block) * kBlockSalt) ^
          (static_cast<uint64_t>(retry) * kRetrySalt));
  return rng.Bernoulli(plan_.eio_prob);
}

}  // namespace mrmb

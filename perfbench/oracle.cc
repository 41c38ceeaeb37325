// The benchmark's correctness checks: an output oracle computed from
// RecordGenerator alone, exact-repeat counter checks, and leak checks.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <thread>

#include "bench.h"
#include "common/strings.h"
#include "io/byte_buffer.h"
#include "io/writable.h"
#include "mapred/null_formats.h"

namespace perfbench {

namespace {

uint64_t Mix(uint64_t x) {  // murmur3's 64-bit finalizer
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

Result<int64_t> DecodeLong(std::string_view bytes) {
  mrmb::BufferReader reader(bytes);
  mrmb::LongWritable value;
  const Status status = value.Deserialize(&reader);
  if (!status.ok()) return status;
  return value.value();
}

// Signed overflow is undefined; sums wrap like SummingReducer's.
int64_t WrappingAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

std::string Hex(std::string_view bytes) {
  std::string out;
  for (size_t i = 0; i < bytes.size() && i < 12; ++i) {
    out += mrmb::StringPrintf("%02x", static_cast<unsigned char>(bytes[i]));
  }
  return bytes.size() > 12 ? out + "..." : out;
}

std::string Describe(const KeyTally& tally) {
  return mrmb::StringPrintf("count %lld digest %016llx sum %lld",
                            static_cast<long long>(tally.count),
                            static_cast<unsigned long long>(tally.digest),
                            static_cast<long long>(tally.sum));
}

int64_t CountEntries(const std::string& dir, bool recursive) {
  std::error_code ec;
  int64_t entries = 0;
  if (recursive) {
    for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
         !ec && it != std::filesystem::recursive_directory_iterator();
         it.increment(ec)) {
      ++entries;
    }
  } else {
    for (auto it = std::filesystem::directory_iterator(dir, ec);
         !ec && it != std::filesystem::directory_iterator();
         it.increment(ec)) {
      ++entries;
    }
  }
  return entries;
}

}  // namespace

uint64_t ValueHash(std::string_view bytes) {
  // Every step is a bijection of the running state for fixed input, so
  // changing any one byte always changes the hash.
  uint64_t h = 0x243f6a8885a308d3ULL ^ bytes.size();
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes.data() + i, sizeof(word));
    h = std::rotl((h ^ word) * 0x9e3779b97f4a7c15ULL, 31);
  }
  uint64_t tail = 0;
  if (i < bytes.size()) std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  return Mix(h ^ tail);
}

void DigestingReducer::Reduce(std::string_view key,
                              mrmb::ValueIterator* values,
                              mrmb::ReduceContext* context) {
  KeyTally tally;
  while (values->Next()) {
    ++tally.count;
    tally.digest += ValueHash(values->value());
  }
  char record[sizeof(tally.count) + sizeof(tally.digest)];
  std::memcpy(record, &tally.count, sizeof(tally.count));
  std::memcpy(record + sizeof(tally.count), &tally.digest,
              sizeof(tally.digest));
  context->Emit(key, std::string_view(record, sizeof(record)));
}

mrmb::ReducerFactory ReferenceReducer(const Workload& workload) {
  if (workload.summing_reducer) {
    return [](int) { return std::make_unique<mrmb::SummingReducer>(); };
  }
  return [](int) { return std::make_unique<DigestingReducer>(); };
}

Tallies ComputeOracle(const Workload& workload) {
  const mrmb::JobConf& conf = workload.conf;
  const auto keys = static_cast<size_t>(conf.record.num_unique_keys);
  const int workers = std::min(4, conf.num_maps);
  std::vector<std::vector<KeyTally>> partial(
      static_cast<size_t>(workers), std::vector<KeyTally>(keys));
  {
    std::vector<std::jthread> threads;
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([&conf, &workload, &partial, workers, w] {
        const mrmb::RecordGenerator generator(GeneratorOptions(conf));
        std::vector<KeyTally>& tally = partial[static_cast<size_t>(w)];
        std::string value;
        for (int map = w; map < conf.num_maps; map += workers) {
          const int64_t base = static_cast<int64_t>(map) * conf.records_per_map;
          for (int64_t i = 0; i < conf.records_per_map; ++i) {
            generator.SerializedValue(base + i, &value);
            KeyTally& key = tally[static_cast<size_t>(generator.KeyIdFor(i))];
            ++key.count;
            if (workload.summing_reducer) {
              key.sum = WrappingAdd(key.sum, DecodeLong(value).value());
            } else {
              key.digest += ValueHash(value);
            }
          }
        }
      });
    }
  }
  const mrmb::RecordGenerator generator(GeneratorOptions(conf));
  Tallies oracle;
  std::string key;
  for (size_t id = 0; id < keys; ++id) {
    KeyTally total;
    for (const std::vector<KeyTally>& part : partial) {
      total.count += part[id].count;
      total.digest += part[id].digest;
      total.sum = WrappingAdd(total.sum, part[id].sum);
    }
    if (total.count == 0) continue;
    // A summed record carries no count; only the sum is checked.
    if (workload.summing_reducer) total.count = 0;
    generator.SerializedKey(static_cast<int64_t>(id), &key);
    oracle[key] = total;
  }
  return oracle;
}

Result<Tallies> TallyOutput(const Workload& workload,
                            const CapturedOutput& output) {
  Tallies got;
  for (const auto& [key, value] : output.records) {
    KeyTally& tally = got[key];
    if (workload.summing_reducer) {
      const Result<int64_t> sum = DecodeLong(value);
      if (!sum.ok()) return sum.status();
      tally.sum = WrappingAdd(tally.sum, *sum);
      continue;
    }
    KeyTally record;
    if (value.size() != sizeof(record.count) + sizeof(record.digest)) {
      return Status::DataLoss(mrmb::StringPrintf(
          "digest record of %zu bytes for key %s", value.size(),
          Hex(key).c_str()));
    }
    std::memcpy(&record.count, value.data(), sizeof(record.count));
    std::memcpy(&record.digest, value.data() + sizeof(record.count),
                sizeof(record.digest));
    tally.count += record.count;
    tally.digest += record.digest;
  }
  return got;
}

Status CompareTallies(const Tallies& want, const Tallies& got) {
  for (const auto& [key, tally] : want) {
    const auto it = got.find(key);
    if (it == got.end()) {
      return Status::DataLoss("key " + Hex(key) + " missing from the output");
    }
    if (!(it->second == tally)) {
      return Status::DataLoss("key " + Hex(key) + ": want " +
                              Describe(tally) + ", got " +
                              Describe(it->second));
    }
  }
  for (const auto& [key, tally] : got) {
    if (want.count(key) == 0) {
      return Status::DataLoss("unexpected key " + Hex(key) + " in the output");
    }
  }
  return Status::OK();
}

Counters DataPlaneCounters(const mrmb::LocalJobResult& r) {
  Counters counters = {
      {"map_input_records", r.map_input_records},
      {"map_output_records", r.map_output_records},
      {"map_output_bytes", r.map_output_bytes},
      {"map_output_wire_bytes", r.map_output_wire_bytes},
      {"spill_count", r.spill_count},
      {"combine_spill_input_records", r.combine_spill_input_records},
      {"combine_spill_output_records", r.combine_spill_output_records},
      {"combine_merge_input_records", r.combine_merge_input_records},
      {"combine_merge_output_records", r.combine_merge_output_records},
      {"combine_reduce_input_records", r.combine_reduce_input_records},
      {"combine_reduce_output_records", r.combine_reduce_output_records},
      {"combine_node_input_records", r.combine_node_input_records},
      {"combine_node_output_records", r.combine_node_output_records},
      {"node_combines", r.node_combines},
      {"shuffle_streams", r.shuffle_streams},
      {"shuffle_serve_bytes", r.shuffle_serve_bytes},
      {"reduce_input_records", r.reduce_input_records},
      {"reduce_groups", r.reduce_groups},
      {"map_attempts", r.map_attempts},
      {"reduce_attempts", r.reduce_attempts},
      {"corruptions_detected", r.corruptions_detected},
      {"watchdog_timeouts", r.watchdog_timeouts},
      {"crc_verifications", r.crc_verifications},
      {"intermediate_merges", r.intermediate_merges},
      {"spilled_bytes", r.spilled_bytes},
      {"spill_extents", r.spill_extents},
      {"spill_degradations", r.spill_degradations},
      {"stale_fetches_invalidated", r.stale_fetches_invalidated},
  };
  for (size_t i = 0; i < r.reducer_input_records.size(); ++i) {
    counters.emplace_back(mrmb::StringPrintf("reducer_input_records[%zu]", i),
                          r.reducer_input_records[i]);
    counters.emplace_back(mrmb::StringPrintf("reducer_input_bytes[%zu]", i),
                          r.reducer_input_bytes[i]);
  }
  return counters;
}

Counters OutputCounters(const mrmb::LocalJobResult& r) {
  return {{"reduce_groups", r.reduce_groups},
          {"output_records", r.output_records},
          {"output_bytes", r.output_bytes},
          {"output_fingerprint", r.output_fingerprint}};
}

Status CompareCounters(const Counters& want, const Counters& got) {
  if (want.size() != got.size()) {
    return Status::DataLoss(mrmb::StringPrintf(
        "%zu counters where the reference has %zu", got.size(), want.size()));
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i] != got[i]) {
      return Status::DataLoss(mrmb::StringPrintf(
          "counter %s = %lld, reference %s = %lld", got[i].first.c_str(),
          static_cast<long long>(got[i].second), want[i].first.c_str(),
          static_cast<long long>(want[i].second)));
    }
  }
  return Status::OK();
}

ProcessSnapshot TakeSnapshot(const std::string& spill_root) {
  ProcessSnapshot snapshot;
  snapshot.fds = CountEntries("/proc/self/fd", /*recursive=*/false);
  snapshot.threads = CountEntries("/proc/self/task", /*recursive=*/false);
  if (!spill_root.empty()) {
    snapshot.spill_entries = CountEntries(spill_root, /*recursive=*/true);
  }
  return snapshot;
}

Status CheckNoLeaks(const ProcessSnapshot& baseline,
                    const std::string& spill_root) {
  ProcessSnapshot now = TakeSnapshot(spill_root);
  for (int retry = 0; retry < 20 && !(now == baseline); ++retry) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    now = TakeSnapshot(spill_root);
  }
  if (now == baseline) return Status::OK();
  return Status::Internal(mrmb::StringPrintf(
      "leak: %lld fds, %lld threads, %lld spill-dir entries; baseline "
      "%lld, %lld, %lld",
      static_cast<long long>(now.fds), static_cast<long long>(now.threads),
      static_cast<long long>(now.spill_entries),
      static_cast<long long>(baseline.fds),
      static_cast<long long>(baseline.threads),
      static_cast<long long>(baseline.spill_entries)));
}

Status CheckReference(const Workload& workload, const Tallies& oracle,
                      const Result<mrmb::LocalJobResult>& result,
                      const CapturedOutput& output,
                      const ProcessSnapshot& baseline) {
  if (!result.ok()) return result.status();
  const Result<Tallies> got = TallyOutput(workload, output);
  if (!got.ok()) return got.status();
  MRMB_RETURN_IF_ERROR(CompareTallies(oracle, *got));
  return CheckNoLeaks(baseline, workload.conf.spill_dir);
}

Status CheckJob(const Result<mrmb::LocalJobResult>& result,
                const Counters& data_plane, const Counters& output,
                const ProcessSnapshot& baseline,
                const std::string& spill_root) {
  if (!result.ok()) return result.status();
  MRMB_RETURN_IF_ERROR(CompareCounters(data_plane, DataPlaneCounters(*result)));
  MRMB_RETURN_IF_ERROR(CompareCounters(output, OutputCounters(*result)));
  return CheckNoLeaks(baseline, spill_root);
}

void FailureLog::Record(const Status& status, const std::string& job) {
  ++attempted_;
  if (status.ok()) return;
  ++failed_;
  if (messages_.size() < 20) {
    messages_.push_back(job + ": " + status.ToString());
  }
}

}  // namespace perfbench

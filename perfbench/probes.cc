// Layer probes: short single-thread measurements of the collect/sort
// buffer, the k-way merge, the block codec, the spill store and the batched
// fetch client, each on records the workload itself generates.

#include <filesystem>
#include <memory>
#include <system_error>

#include "bench.h"
#include "io/block_codec.h"
#include "io/comparator.h"
#include "io/kv_buffer.h"
#include "io/merge.h"
#include "io/spill_store.h"
#include "mapred/map_output.h"
#include "mapred/partitioner.h"
#include "net/shuffle_transport.h"

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
// Repetitions per probe; each probe reports the median.
constexpr int kReps = 5;
// The engine seeds map task t's partitioner with seed + t * this stride.
constexpr uint64_t kTaskSeedStride = 7919;

struct Record {
  int partition = 0;
  std::string key;
  std::string value;
};

// Map `task`'s records as the job generates and partitions them, keeping
// those bound for partition `keep` (all of them when keep < 0).
std::vector<Record> MapRecords(const mrmb::JobConf& conf, int task,
                               int keep) {
  const mrmb::RecordGenerator generator(GeneratorOptions(conf));
  const std::unique_ptr<mrmb::Partitioner> partitioner =
      mrmb::MakePartitioner(
          conf.pattern,
          conf.seed + static_cast<uint64_t>(task) * kTaskSeedStride,
          conf.records_per_map, conf.zipf_exponent);
  std::vector<std::string> keys(
      static_cast<size_t>(conf.record.num_unique_keys));
  for (size_t id = 0; id < keys.size(); ++id) {
    generator.SerializedKey(static_cast<int64_t>(id), &keys[id]);
  }
  std::vector<Record> records;
  const int64_t base = static_cast<int64_t>(task) * conf.records_per_map;
  for (int64_t i = 0; i < conf.records_per_map; ++i) {
    const std::string& key = keys[static_cast<size_t>(generator.KeyIdFor(i))];
    const int partition = partitioner->Partition(key, i, conf.num_reduces);
    if (keep >= 0 && partition != keep) continue;
    Record record{partition, key, {}};
    generator.SerializedValue(base + i, &record.value);
    records.push_back(std::move(record));
  }
  return records;
}

double Elapsed(int64_t start_ns) {
  return static_cast<double>(NowNanos() - start_ns) * 1e-9;
}

// KvBuffer::Append + Sort + ToSpill over one map's records through a buffer
// of the job's size. Leaves the last repetition's spills in `spills`.
double SortProbe(const mrmb::JobConf& conf, const std::vector<Record>& records,
                 std::vector<mrmb::SpillSegment>* spills) {
  const auto capacity = static_cast<size_t>(
      static_cast<double>(conf.io_sort_bytes) * conf.spill_percent);
  std::vector<double> seconds;
  for (int rep = 0; rep < kReps; ++rep) {
    spills->clear();
    mrmb::KvBuffer buffer(conf.record.type, conf.num_reduces, capacity);
    const int64_t start = NowNanos();
    for (const Record& r : records) {
      if (buffer.Append(r.partition, r.key, r.value)) continue;
      buffer.Sort();
      spills->push_back(buffer.ToSpill());
      buffer.Clear();
      buffer.Append(r.partition, r.key, r.value);
    }
    buffer.Sort();
    spills->push_back(buffer.ToSpill());
    seconds.push_back(Elapsed(start));
  }
  return Median(seconds) / (static_cast<double>(records.size()) * 1e-6);
}

// MergeIterator over `fan_in` sorted runs of partition 0, one per map.
Result<double> MergeProbe(const mrmb::JobConf& conf, int fan_in) {
  std::vector<std::string> runs;
  for (int map = 0; map < fan_in; ++map) {
    const std::vector<Record> records =
        MapRecords(conf, map % conf.num_maps, /*keep=*/0);
    size_t bytes = 64;
    for (const Record& r : records) bytes += r.key.size() + r.value.size() + 20;
    mrmb::KvBuffer buffer(conf.record.type, 1, bytes);
    for (const Record& r : records) {
      if (!buffer.Append(0, r.key, r.value)) {
        return Status::Internal("merge probe: a run overflowed its buffer");
      }
    }
    buffer.Sort();
    runs.push_back(buffer.ToSpill().data);
  }
  const mrmb::RawComparator* comparator =
      mrmb::ComparatorFor(conf.record.type);
  std::vector<double> seconds;
  int64_t merged = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<std::unique_ptr<mrmb::RecordStream>> inputs;
    for (const std::string& run : runs) {
      inputs.push_back(
          std::make_unique<mrmb::SegmentReader>(run, conf.record.type));
    }
    const int64_t start = NowNanos();
    mrmb::MergeIterator merge(std::move(inputs), comparator);
    int64_t records = 0;
    size_t bytes = 0;
    for (; merge.Valid(); merge.Next()) {
      ++records;
      bytes += merge.key().size() + merge.value().size();
    }
    seconds.push_back(Elapsed(start));
    MRMB_RETURN_IF_ERROR(merge.status());
    if (records > 0 && bytes == 0) {
      return Status::Internal("merge probe: empty records");
    }
    merged = records;
  }
  if (merged == 0) return 0.0;
  return Median(seconds) / (static_cast<double>(merged) * 1e-6);
}

// BlockCompress and BlockDecompress over every sealed partition.
Status CodecProbe(mrmb::MapOutputCodec codec, const mrmb::SpillSegment& output,
                  ProbeResults* probes) {
  std::string frame;
  std::string raw;
  std::vector<double> compress;
  std::vector<double> decompress;
  int64_t raw_bytes = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    int64_t compress_ns = 0;
    int64_t decompress_ns = 0;
    raw_bytes = 0;
    for (size_t p = 0; p < output.partitions.size(); ++p) {
      const std::string_view data = output.PartitionData(static_cast<int>(p));
      raw_bytes += static_cast<int64_t>(data.size());
      const int64_t t0 = NowNanos();
      MRMB_RETURN_IF_ERROR(mrmb::BlockCompress(codec, data, &frame));
      const int64_t t1 = NowNanos();
      MRMB_RETURN_IF_ERROR(mrmb::BlockDecompress(frame, &raw));
      const int64_t t2 = NowNanos();
      if (raw != data) {
        return Status::DataLoss("codec probe: the round trip changed bytes");
      }
      compress_ns += t1 - t0;
      decompress_ns += t2 - t1;
    }
    compress.push_back(static_cast<double>(compress_ns) * 1e-9);
    decompress.push_back(static_cast<double>(decompress_ns) * 1e-9);
  }
  const double mb = static_cast<double>(raw_bytes) / kMiB;
  if (mb <= 0) return Status::OK();
  probes->compress_s_per_mb = Median(compress) / mb;
  probes->decompress_s_per_mb = Median(decompress) / mb;
  return Status::OK();
}

// SpillStore::Put of the map's final output and StoredSpill::ReadPartition
// of each partition, then — on the tcp workload — FetchBatch of one reduce's
// partitions, every map id served from that extent by sendfile.
Status StoreAndFetchProbes(const mrmb::JobConf& conf,
                           const mrmb::SpillSegment& output,
                           const std::string& scratch, ProbeResults* probes) {
  const mrmb::MapOutputCodec codec = conf.effective_map_output_codec();
  mrmb::SpillSegment wire = output;
  if (codec != mrmb::MapOutputCodec::kNone) {
    MRMB_ASSIGN_OR_RETURN(wire, mrmb::CompressSegment(codec, output));
  }
  mrmb::SpillStoreOptions options;
  options.dir = scratch + "/probe-store";
  options.cache_bytes = conf.spill_cache_bytes;
  options.block_bytes = conf.spill_block_bytes;
  options.block_codec = codec;
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) return Status::IOError("cannot create " + options.dir);
  MRMB_ASSIGN_OR_RETURN(std::unique_ptr<mrmb::SpillStore> store,
                        mrmb::SpillStore::Open(options));
  std::shared_ptr<const mrmb::StoredSpill> served;
  std::vector<double> put;
  std::vector<double> read;
  for (int rep = 0; rep < kReps; ++rep) {
    const int64_t t0 = NowNanos();
    MRMB_ASSIGN_OR_RETURN(served, store->Put(wire, /*task=*/0, rep));
    const int64_t t1 = NowNanos();
    for (size_t p = 0; p < wire.partitions.size(); ++p) {
      MRMB_ASSIGN_OR_RETURN(
          const std::string bytes,
          served->ReadPartition(static_cast<int>(p), /*verify=*/true));
      if (bytes != wire.PartitionData(static_cast<int>(p))) {
        return Status::DataLoss("spill store probe: read back other bytes");
      }
    }
    put.push_back(static_cast<double>(t1 - t0) * 1e-9);
    read.push_back(Elapsed(t1));
  }
  const double mb = static_cast<double>(wire.total_bytes()) / kMiB;
  probes->put_s_per_mb = Median(put) / mb;
  probes->read_s_per_mb = Median(read) / mb;
  if (conf.shuffle_transport != mrmb::ShuffleTransport::kTcp) {
    return Status::OK();
  }

  mrmb::ShuffleTransportServer::Options server_options;
  server_options.job_digest = conf.Digest();
  server_options.reactors = conf.shuffle_server_reactors;
  server_options.socket_buffer_bytes = conf.shuffle_socket_buffer_bytes;
  MRMB_ASSIGN_OR_RETURN(std::unique_ptr<mrmb::ShuffleTransportServer> server,
                        mrmb::ShuffleTransportServer::Start(server_options));
  const auto segment = std::make_shared<const mrmb::SpillSegment>(wire);
  std::vector<mrmb::ShuffleFetchWant> wants;
  for (int map = 0; map < conf.num_maps; ++map) {
    server->Publish(map, /*generation=*/1, segment, served);
    wants.push_back({map, /*partition=*/0, /*generation=*/1});
  }
  mrmb::ShuffleTransportClient::Options client_options;
  client_options.job_digest = conf.Digest();
  client_options.port = server->port();
  client_options.parallel_streams = conf.fetch_parallel_streams;
  client_options.protocol_version = conf.shuffle_protocol_version;
  client_options.window_init = conf.fetch_window_init;
  client_options.window_max = conf.fetch_window_max;
  client_options.socket_buffer_bytes = conf.shuffle_socket_buffer_bytes;
  mrmb::ShuffleTransportClient client(client_options);
  std::vector<double> seconds;
  int64_t fetched = 0;
  int64_t bodies = 0;
  // Repetition 0 opens the connection and is not counted.
  for (int rep = 0; rep <= kReps; ++rep) {
    const int64_t start = NowNanos();
    std::vector<mrmb::ShuffleFetchResult> results = client.FetchBatch(wants);
    const double elapsed = Elapsed(start);
    fetched = 0;
    bodies = 0;
    for (mrmb::ShuffleFetchResult& result : results) {
      if (!result.transport_ok || result.status != mrmb::FetchStatus::kOk) {
        return Status::IOError("fetch probe: a fetch failed");
      }
      fetched += result.wire_bytes;
      bodies += static_cast<int64_t>(result.body.size());
      client.RecycleBuffer(std::move(result.body));
    }
    if (rep > 0) seconds.push_back(elapsed);
  }
  if (fetched > 0) {
    probes->fetch_batch_s_per_mb =
        Median(seconds) / (static_cast<double>(fetched) / kMiB);
    probes->header_bytes_per_partition =
        static_cast<double>(fetched - bodies) /
        static_cast<double>(wants.size());
  }
  return Status::OK();
}

}  // namespace

Result<ProbeResults> RunProbes(const Workload& workload, int fan_in,
                               const std::string& scratch) {
  const mrmb::JobConf& conf = workload.conf;
  ProbeResults probes;
  std::vector<mrmb::SpillSegment> spills;
  probes.sort_s_per_mrec = SortProbe(conf, MapRecords(conf, 0, -1), &spills);
  MRMB_ASSIGN_OR_RETURN(probes.merge_s_per_mrec, MergeProbe(conf, fan_in));

  const mrmb::MapOutputCodec codec = conf.effective_map_output_codec();
  if (codec == mrmb::MapOutputCodec::kNone && !conf.spill_engine_enabled()) {
    return probes;
  }
  // The map's final output, built from its spills as the engine builds it.
  mrmb::SpillSegment output;
  if (spills.size() == 1) {
    output = std::move(spills[0]);
  } else {
    std::vector<const mrmb::SpillSegment*> inputs;
    for (const mrmb::SpillSegment& spill : spills) inputs.push_back(&spill);
    MRMB_ASSIGN_OR_RETURN(
        output,
        mrmb::MergeSegments(inputs, mrmb::ComparatorFor(conf.record.type)));
  }
  if (codec != mrmb::MapOutputCodec::kNone) {
    MRMB_RETURN_IF_ERROR(CodecProbe(codec, output, &probes));
  }
  if (conf.spill_engine_enabled()) {
    MRMB_RETURN_IF_ERROR(StoreAndFetchProbes(conf, output, scratch, &probes));
  }
  return probes;
}

}  // namespace perfbench

// terasort_local: the HDFS-era benchmark the paper contrasts with its
// stand-alone suite, running for real on the functional engine.
//
// Implements TeraSort's essential trick — input sampling feeding a
// total-order RangePartitioner — so that the concatenation of the
// reducers' outputs is globally sorted. Everything is real: random
// 10+90-byte records, sampling, raw-byte range partitioning, sort
// buffers, merge, and a final global-order verification pass.
//
//   ./terasort_local [--records=20000] [--maps=4] [--reduces=4]

#include <cstdio>
#include <iostream>

#include "common/rng.h"
#include "io/byte_buffer.h"
#include "mapred/local_runner.h"
#include "mrmb/flags.h"

namespace {

using namespace mrmb;

// TeraGen-style input: `records` rows of a 10-byte random key and a
// 90-byte payload, striped over the maps.
class TeraGenInputFormat final : public InputFormat {
 public:
  TeraGenInputFormat(int64_t records, uint64_t seed)
      : records_(records), seed_(seed) {}

  std::vector<InputSplit> GetSplits(const JobConf& conf,
                                    int num_splits) override {
    std::vector<InputSplit> splits(static_cast<size_t>(num_splits));
    for (int i = 0; i < num_splits; ++i) {
      auto& split = splits[static_cast<size_t>(i)];
      split.split_id = i;
      split.num_records = records_ / conf.num_maps +
                          (i < records_ % conf.num_maps ? 1 : 0);
    }
    return splits;
  }

  std::unique_ptr<RecordReader> CreateReader(
      const JobConf& /*conf*/, const InputSplit& split) override {
    class Reader final : public RecordReader {
     public:
      Reader(int64_t records, uint64_t seed) : records_(records), rng_(seed) {}
      bool Next(std::string* key, std::string* value) override {
        if (emitted_ >= records_) return false;
        ++emitted_;
        std::string key_payload(10, '\0');
        rng_.Fill(key_payload.data(), key_payload.size());
        std::string value_payload(90, '\0');
        rng_.Fill(value_payload.data(), value_payload.size());
        key->clear();
        value->clear();
        BufferWriter key_writer(key);
        BytesWritable(std::move(key_payload)).Serialize(&key_writer);
        BufferWriter value_writer(value);
        BytesWritable(std::move(value_payload)).Serialize(&value_writer);
        return true;
      }

     private:
      int64_t records_;
      Rng rng_;
      int64_t emitted_ = 0;
    };
    return std::make_unique<Reader>(
        split.num_records,
        seed_ ^ (0x9e3779b9u + static_cast<uint64_t>(split.split_id)));
  }

 private:
  int64_t records_;
  uint64_t seed_;
};

// Identity mapper/reducer: TeraSort sorts, it does not transform.
class IdentityMapper final : public Mapper {
 public:
  void Map(std::string_view key, std::string_view value,
           MapContext* context) override {
    context->Emit(key, value);
  }
};

class IdentityReducer final : public Reducer {
 public:
  void Reduce(std::string_view key, ValueIterator* values,
              ReduceContext* context) override {
    while (values->Next()) context->Emit(key, values->value());
  }
};

// Collects output per partition and verifies global order at Close().
class OrderCheckingOutputFormat final : public OutputFormat {
 public:
  explicit OrderCheckingOutputFormat(int partitions)
      : last_key_(static_cast<size_t>(partitions)),
        counts_(static_cast<size_t>(partitions), 0) {}

  std::unique_ptr<RecordWriter> CreateWriter(const JobConf&,
                                             int partition) override {
    class Writer final : public RecordWriter {
     public:
      Writer(OrderCheckingOutputFormat* owner, int partition)
          : owner_(owner), partition_(static_cast<size_t>(partition)) {}
      void Write(std::string_view key, std::string_view value) override {
        (void)value;
        const RawComparator* cmp = ComparatorFor(DataType::kBytesWritable);
        std::string& last = owner_->last_key_[partition_];
        if (!last.empty() && cmp->Compare(last, key) > 0) {
          owner_->order_violations_ += 1;
        }
        last.assign(key);
        owner_->counts_[partition_] += 1;
      }
      Status Close() override { return Status::OK(); }

     private:
      OrderCheckingOutputFormat* owner_;
      size_t partition_;
    };
    return std::make_unique<Writer>(this, partition);
  }

  // True if partition p's whole key range is <= partition p+1's first key
  // and every partition is internally sorted.
  bool GloballySorted() const {
    if (order_violations_ != 0) return false;
    const RawComparator* cmp = ComparatorFor(DataType::kBytesWritable);
    for (size_t p = 1; p < last_key_.size(); ++p) {
      if (last_key_[p - 1].empty() || last_key_[p].empty()) continue;
      if (cmp->Compare(last_key_[p - 1], last_key_[p]) > 0) return false;
    }
    return true;
  }

  const std::vector<int64_t>& counts() const { return counts_; }
  int64_t order_violations() const { return order_violations_; }

 private:
  friend class Writer;
  std::vector<std::string> last_key_;
  std::vector<int64_t> counts_;
  int64_t order_violations_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  auto flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok() || flags_or->help_requested()) {
    std::cout << "usage: terasort_local [--records=20000] [--maps=4] "
                 "[--reduces=4]\n";
    return flags_or.ok() ? 0 : 2;
  }
  auto records = flags_or->GetInt("records", 20000);
  auto maps = flags_or->GetInt("maps", 4);
  auto reduces = flags_or->GetInt("reduces", 4);
  if (!records.ok() || !maps.ok() || !reduces.ok()) return 2;
  if (const Status unread = flags_or->CheckAllRead(); !unread.ok()) {
    std::cerr << unread.ToString() << "\n";
    return 2;
  }

  JobConf conf;
  conf.job_name = "terasort";
  conf.num_maps = static_cast<int>(*maps);
  conf.num_reduces = static_cast<int>(*reduces);
  conf.record.type = DataType::kBytesWritable;
  conf.io_sort_bytes = 256 * 1024;  // exercise spills

  // --- Phase 1: sample the input for split points (TeraSort's sampler).
  TeraGenInputFormat input(*records, /*seed=*/2026);
  std::vector<std::string> sample;
  {
    const auto splits = input.GetSplits(conf, conf.num_maps);
    for (const InputSplit& split : splits) {
      auto reader = input.CreateReader(conf, split);
      std::string key;
      std::string value;
      int64_t seen = 0;
      while (reader->Next(&key, &value)) {
        if (seen % 100 == 0) sample.push_back(key);  // 1% sample
        ++seen;
      }
    }
  }
  const RawComparator* cmp = ComparatorFor(DataType::kBytesWritable);
  auto split_points = BuildSplitPoints(sample, conf.num_reduces, cmp);
  std::printf("sampled %zu keys -> %zu split points\n", sample.size(),
              split_points.size());

  // --- Phase 2: run the sort with the total-order partitioner.
  OrderCheckingOutputFormat output(conf.num_reduces);
  LocalJobRunner runner(conf);
  auto result = runner.Run(
      &input, [](int) { return std::make_unique<IdentityMapper>(); },
      [](int) { return std::make_unique<IdentityReducer>(); }, &output,
      [&split_points, cmp](int) {
        return std::make_unique<RangePartitioner>(split_points, cmp);
      });
  if (!result.ok()) {
    std::cerr << "terasort failed: " << result.status().ToString() << "\n";
    return 1;
  }

  std::printf("sorted %lld records through %d reducers in %.3f s (real)\n",
              static_cast<long long>(result->output_records),
              conf.num_reduces, result->wall_seconds);
  for (size_t r = 0; r < output.counts().size(); ++r) {
    std::printf("  part-r-%05zu: %lld records\n", r,
                static_cast<long long>(output.counts()[r]));
  }
  if (result->output_records != *records) {
    std::printf("FAILED: record count mismatch\n");
    return 1;
  }
  if (!output.GloballySorted()) {
    std::printf("FAILED: output is not globally sorted (%lld violations)\n",
                static_cast<long long>(output.order_violations()));
    return 1;
  }
  std::printf("VERIFIED: output is globally sorted across all partitions\n");
  return 0;
}

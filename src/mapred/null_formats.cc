#include "mapred/null_formats.h"

#include "common/logging.h"
#include "io/byte_buffer.h"
#include "io/writable.h"

namespace mrmb {

namespace {

// Single empty record, as the paper's dummy splits carry.
class DummyReader final : public RecordReader {
 public:
  bool Next(std::string* key, std::string* value) override {
    if (consumed_) return false;
    consumed_ = true;
    key->clear();
    value->clear();
    return true;
  }

 private:
  bool consumed_ = false;
};

class DiscardingWriter final : public RecordWriter {
 public:
  DiscardingWriter(std::atomic<int64_t>* records, std::atomic<int64_t>* bytes)
      : records_(records), bytes_(bytes) {}

  void Write(std::string_view key, std::string_view value) override {
    records_->fetch_add(1, std::memory_order_relaxed);
    bytes_->fetch_add(static_cast<int64_t>(key.size() + value.size()),
                      std::memory_order_relaxed);
  }

  Status Close() override { return Status::OK(); }

 private:
  std::atomic<int64_t>* records_;
  std::atomic<int64_t>* bytes_;
};

}  // namespace

std::vector<InputSplit> NullInputFormat::GetSplits(const JobConf& conf,
                                                   int num_splits) {
  (void)conf;
  std::vector<InputSplit> splits;
  splits.reserve(static_cast<size_t>(num_splits));
  for (int i = 0; i < num_splits; ++i) {
    InputSplit split;
    split.split_id = i;
    split.num_records = 1;  // one dummy record
    splits.push_back(split);
  }
  return splits;
}

std::unique_ptr<RecordReader> NullInputFormat::CreateReader(
    const JobConf& /*conf*/, const InputSplit& /*split*/) {
  return std::make_unique<DummyReader>();
}

std::unique_ptr<RecordWriter> NullOutputFormat::CreateWriter(
    const JobConf& /*conf*/, int /*partition*/) {
  return std::make_unique<DiscardingWriter>(&records_, &bytes_);
}

GeneratingMapper::GeneratingMapper(const JobConf& conf, int task_id)
    : conf_(conf), task_id_(task_id), generator_([&] {
        RecordGenerator::Options options = conf.record;
        // Keys must be bit-identical across tasks (grouping correctness),
        // so the generator seed stays job-global; value uniqueness comes
        // from the globally-offset record index below.
        options.seed = conf.seed;
        return options;
      }()) {}

void GeneratingMapper::Map(std::string_view /*key*/,
                           std::string_view /*value*/, MapContext* context) {
  std::string key_out;
  std::string value_out;
  const int64_t base = static_cast<int64_t>(task_id_) * conf_.records_per_map;
  for (int64_t i = 0; i < conf_.records_per_map; ++i) {
    generator_.SerializedKey(generator_.KeyIdFor(i), &key_out);
    generator_.SerializedValue(base + i, &value_out);
    context->Emit(key_out, value_out);
  }
}

void SummingReducer::Reduce(std::string_view key, ValueIterator* values,
                            ReduceContext* context) {
  // Unsigned, so that the sum wraps like int64 two's complement without
  // signed overflow; wrapping keeps it order-insensitive.
  uint64_t sum = 0;
  while (values->Next()) {
    const std::string_view value = values->value();
    MRMB_CHECK_GE(value.size(), sizeof(uint64_t))
        << "SummingReducer needs LongWritable values";
    sum += LoadBigEndian64(value.data());
  }
  char bytes[sizeof(uint64_t)];
  StoreBigEndian64(sum, bytes);
  context->Emit(key, std::string_view(bytes, sizeof(bytes)));
}

ReducerFactory MakeBuiltinCombiner(CombinerKind kind) {
  switch (kind) {
    case CombinerKind::kNone:
      return nullptr;
    case CombinerKind::kSum:
      return [](int) { return std::make_unique<SummingReducer>(); };
  }
  return nullptr;
}

void DiscardingReducer::Reduce(std::string_view key, ValueIterator* values,
                               ReduceContext* /*context*/) {
  ++groups_;
  bytes_ += static_cast<int64_t>(key.size());
  while (values->Next()) {
    ++values_seen_;
    bytes_ += static_cast<int64_t>(values->value().size());
  }
}

}  // namespace mrmb

// Workload definitions and the three ways perfbench runs a functional job:
// the timed paper job, its instrumented twin for the traced run, and the
// oracle-checked reference job.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <system_error>

#include "bench.h"
#include "mapred/null_formats.h"

namespace perfbench {

namespace {

constexpr int64_t kMiB = 1024 * 1024;
// Records the instrumented mapper generates between two clock reads.
constexpr int64_t kBatch = 256;

// Record shape, and enough records per map for `shuffle_bytes` of
// IFile-framed map output.
void SetRecords(mrmb::JobConf* conf, mrmb::DataType type, size_t key_size,
                size_t value_size, int64_t shuffle_bytes) {
  conf->record.type = type;
  conf->record.key_size = key_size;
  conf->record.value_size = value_size;
  // The paper restricts unique keys to the reducer count (Sect. 4.2).
  conf->record.num_unique_keys = conf->num_reduces;
  const mrmb::RecordGenerator generator(conf->record);
  const int64_t records = generator.RecordsForShuffleBytes(shuffle_bytes);
  conf->records_per_map = (records + conf->num_maps - 1) / conf->num_maps;
}

mrmb::ReducerFactory StockReducer(const Workload& workload) {
  if (workload.summing_reducer) {
    return [](int) { return std::make_unique<mrmb::SummingReducer>(); };
  }
  return [](int) { return std::make_unique<mrmb::DiscardingReducer>(); };
}

mrmb::MapperFactory PaperMapper(const Workload& workload) {
  const mrmb::JobConf* conf = &workload.conf;
  return [conf](int task) {
    return std::make_unique<mrmb::GeneratingMapper>(*conf, task);
  };
}

Result<mrmb::LocalJobResult> RunJob(const Workload& workload,
                                    const mrmb::MapperFactory& mapper,
                                    const mrmb::ReducerFactory& reducer,
                                    mrmb::OutputFormat* output) {
  mrmb::LocalJobRunner runner(workload.conf);
  mrmb::NullInputFormat input;
  return runner.Run(&input, mapper, reducer, output,
                    /*partitioner_factory=*/nullptr,
                    mrmb::MakeBuiltinCombiner(workload.conf.combiner));
}

// Calls RecordGenerator exactly as GeneratingMapper does (same seed, key
// ids, value indices and emit order), but generates a batch of records
// before emitting it, so the generator and Emit cost two clock reads per
// batch.
class TracedMapper final : public mrmb::Mapper {
 public:
  TracedMapper(const mrmb::JobConf& conf, int task, SpanRecorder* recorder,
               int32_t job, int32_t job_span)
      : conf_(conf),
        task_(task),
        recorder_(recorder),
        job_(job),
        job_span_(job_span),
        generator_(GeneratorOptions(conf)),
        keys_(kBatch),
        values_(kBatch) {}

  void Map(std::string_view /*key*/, std::string_view /*value*/,
           mrmb::MapContext* context) override {
    const int64_t start = NowNanos();
    const int64_t base = static_cast<int64_t>(task_) * conf_.records_per_map;
    int64_t generate_ns = 0;
    int64_t emit_ns = 0;
    int64_t batches = 0;
    for (int64_t first = 0; first < conf_.records_per_map; first += kBatch) {
      const auto n = static_cast<size_t>(
          std::min(kBatch, conf_.records_per_map - first));
      const int64_t t0 = NowNanos();
      for (size_t j = 0; j < n; ++j) {
        const int64_t i = first + static_cast<int64_t>(j);
        generator_.SerializedKey(generator_.KeyIdFor(i), &keys_[j]);
        generator_.SerializedValue(base + i, &values_[j]);
      }
      const int64_t t1 = NowNanos();
      for (size_t j = 0; j < n; ++j) context->Emit(keys_[j], values_[j]);
      const int64_t t2 = NowNanos();
      generate_ns += t1 - t0;
      emit_ns += t2 - t1;
      ++batches;
    }
    const int64_t end = NowNanos();
    const int32_t id = recorder_->NewId();
    const int32_t thread = ThreadIndex();
    recorder_->Add({.name = kRecordGenSpan,
                    .start_ns = start,
                    .end_ns = start + generate_ns,
                    .calls = batches,
                    .id = recorder_->NewId(),
                    .parent = id,
                    .job = job_,
                    .thread = thread});
    recorder_->Add({.name = kEmitSpan,
                    .start_ns = start + generate_ns,
                    .end_ns = start + generate_ns + emit_ns,
                    .calls = batches,
                    .id = recorder_->NewId(),
                    .parent = id,
                    .job = job_,
                    .thread = thread});
    recorder_->Add({.name = kMapFnSpan,
                    .start_ns = start,
                    .end_ns = end,
                    .id = id,
                    .parent = job_span_,
                    .job = job_,
                    .thread = thread});
  }

 private:
  const mrmb::JobConf& conf_;
  const int task_;
  SpanRecorder* const recorder_;
  const int32_t job_;
  const int32_t job_span_;
  const mrmb::RecordGenerator generator_;
  std::vector<std::string> keys_;
  std::vector<std::string> values_;
};

// Times every ValueIterator::Next the wrapped reducer makes.
class TimedValues final : public mrmb::ValueIterator {
 public:
  explicit TimedValues(mrmb::ValueIterator* inner) : inner_(inner) {}

  bool Next() override {
    const int64_t start = NowNanos();
    const bool more = inner_->Next();
    busy_ns_ += NowNanos() - start;
    ++calls_;
    return more;
  }
  std::string_view value() const override { return inner_->value(); }

  int64_t busy_ns() const { return busy_ns_; }
  int64_t calls() const { return calls_; }

 private:
  mrmb::ValueIterator* const inner_;
  int64_t busy_ns_ = 0;
  int64_t calls_ = 0;
};

// The stock reducer, with each Reduce call and its Next calls traced.
class TracedReducer final : public mrmb::Reducer {
 public:
  TracedReducer(std::unique_ptr<mrmb::Reducer> inner, SpanRecorder* recorder,
                int32_t job, int32_t job_span)
      : inner_(std::move(inner)),
        recorder_(recorder),
        job_(job),
        job_span_(job_span) {}

  void Reduce(std::string_view key, mrmb::ValueIterator* values,
              mrmb::ReduceContext* context) override {
    const int64_t start = NowNanos();
    TimedValues timed(values);
    inner_->Reduce(key, &timed, context);
    const int64_t end = NowNanos();
    const int32_t id = recorder_->NewId();
    const int32_t thread = ThreadIndex();
    recorder_->Add({.name = kNextSpan,
                    .start_ns = start,
                    .end_ns = start + timed.busy_ns(),
                    .calls = timed.calls(),
                    .id = recorder_->NewId(),
                    .parent = id,
                    .job = job_,
                    .thread = thread});
    recorder_->Add({.name = kReduceFnSpan,
                    .start_ns = start,
                    .end_ns = end,
                    .id = id,
                    .parent = job_span_,
                    .job = job_,
                    .thread = thread});
  }

 private:
  const std::unique_ptr<mrmb::Reducer> inner_;
  SpanRecorder* const recorder_;
  const int32_t job_;
  const int32_t job_span_;
};

// Collects reduce output; the runner writes it from one thread only.
class CapturingOutputFormat final : public mrmb::OutputFormat {
 public:
  explicit CapturingOutputFormat(CapturedOutput* output) : output_(output) {}

  std::unique_ptr<mrmb::RecordWriter> CreateWriter(
      const mrmb::JobConf& /*conf*/, int /*partition*/) override {
    return std::make_unique<Writer>(output_);
  }

 private:
  class Writer final : public mrmb::RecordWriter {
   public:
    explicit Writer(CapturedOutput* output) : output_(output) {}
    void Write(std::string_view key, std::string_view value) override {
      output_->records.emplace_back(key, value);
    }
    Status Close() override { return Status::OK(); }

   private:
    CapturedOutput* const output_;
  };

  CapturedOutput* const output_;
};

}  // namespace

mrmb::RecordGenerator::Options GeneratorOptions(const mrmb::JobConf& conf) {
  mrmb::RecordGenerator::Options options = conf.record;
  options.seed = conf.seed;
  return options;
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                              const std::string& scratch,
                              const std::string& suite_path) {
  Workload workload;
  workload.name = name;
  workload.seed = seed;
  mrmb::JobConf& conf = workload.conf;
  conf.job_name = name;
  conf.seed = seed;
  if (name == "avg-bytes-inproc") {
    conf.num_maps = 16;
    conf.num_reduces = 8;
    conf.pattern = mrmb::DistributionPattern::kAverage;
    SetRecords(&conf, mrmb::DataType::kBytesWritable, 512, 512, 256 * kMiB);
    // Several spills per map, like the paper's 512 MB maps against a
    // 100 MB sort buffer.
    conf.io_sort_bytes = 4 * kMiB;
    conf.local_threads = 4;
  } else if (name == "rand-text-tcp-disk") {
    conf.num_maps = 32;
    conf.num_reduces = 16;
    conf.pattern = mrmb::DistributionPattern::kRandom;
    // 32 MB rather than 64: a run then times ~40 jobs, so ten of them lie
    // beyond job_s.tail at about the 75th percentile.
    SetRecords(&conf, mrmb::DataType::kText, 50, 50, 32 * kMiB);
    // Three task threads plus the server's one reactor.
    conf.local_threads = 3;
    conf.shuffle_transport = mrmb::ShuffleTransport::kTcp;
    conf.shuffle_protocol_version = 2;
    conf.shuffle_server_reactors = 1;
    conf.fetch_parallel_streams = 4;
    conf.map_output_codec = mrmb::MapOutputCodec::kLz4;
    // Every sealed spill goes to an extent file and is served by sendfile.
    conf.spill_budget_bytes = 0;
    conf.spill_dir = scratch + "/spill";
  } else if (name == "skew-long-combine") {
    conf.num_maps = 16;
    conf.num_reduces = 8;
    conf.pattern = mrmb::DistributionPattern::kSkewed;
    SetRecords(&conf, mrmb::DataType::kLongWritable, 8, 8, 128 * kMiB);
    conf.io_sort_bytes = 2 * kMiB;
    conf.local_threads = 4;
    // The sum combiner at all three stages: per spill, at merges, in-node.
    conf.combiner = mrmb::CombinerKind::kSum;
    conf.min_spills_for_combine = 2;
    conf.node_combine_min_maps = 4;
    workload.summing_reducer = true;
  } else if (name == "sim-paper-sweep") {
    workload.simulated = true;
    std::ifstream in(suite_path);
    if (!in) return Status::NotFound("cannot read suite " + suite_path);
    std::ostringstream text;
    text << in.rdbuf();
    workload.suite_text = text.str();
    return workload;
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  if (!conf.spill_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(conf.spill_dir, ec);
    if (ec) {
      return Status::IOError("cannot create " + conf.spill_dir + ": " +
                             ec.message());
    }
  }
  MRMB_RETURN_IF_ERROR(conf.Validate());
  return workload;
}

Result<mrmb::LocalJobResult> RunPaperJob(const Workload& workload) {
  mrmb::NullOutputFormat output;
  return RunJob(workload, PaperMapper(workload), StockReducer(workload),
                &output);
}

Result<mrmb::LocalJobResult> RunTracedJob(const Workload& workload,
                                          SpanRecorder* recorder,
                                          int32_t job) {
  const int32_t job_span = recorder->NewId();
  const mrmb::JobConf* conf = &workload.conf;
  const mrmb::MapperFactory mapper = [conf, recorder, job,
                                      job_span](int task) {
    return std::make_unique<TracedMapper>(*conf, task, recorder, job,
                                          job_span);
  };
  const mrmb::ReducerFactory stock = StockReducer(workload);
  const mrmb::ReducerFactory reducer = [stock, recorder, job,
                                        job_span](int task) {
    return std::make_unique<TracedReducer>(stock(task), recorder, job,
                                           job_span);
  };
  mrmb::NullOutputFormat output;
  const int64_t start = NowNanos();
  Result<mrmb::LocalJobResult> result =
      RunJob(workload, mapper, reducer, &output);
  recorder->Add({.name = kJobSpan,
                 .start_ns = start,
                 .end_ns = NowNanos(),
                 .id = job_span,
                 .job = job,
                 .thread = ThreadIndex()});
  return result;
}

Result<mrmb::LocalJobResult> RunReferenceJob(
    const Workload& workload, const mrmb::ReducerFactory& reducer,
    CapturedOutput* output) {
  CapturingOutputFormat format(output);
  return RunJob(workload, PaperMapper(workload), reducer, &format);
}

}  // namespace perfbench

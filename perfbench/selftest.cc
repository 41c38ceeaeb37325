// Self-test of perfbench's correctness checks: clean jobs pass, while a
// flipped value byte, a dropped record, drifted counters and a leaked fd
// each fail and so raise the error rate. Run it with
// `python3 perfbench/run.py --selftest`.

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

enum class Fault { kNone, kFlipByte, kDropRecord };

// Passes a group's values through, damaging the first one.
class FaultyValues final : public mrmb::ValueIterator {
 public:
  FaultyValues(mrmb::ValueIterator* inner, Fault fault)
      : inner_(inner), fault_(fault) {}

  bool Next() override {
    if (!inner_->Next()) return false;
    const Fault fault = fault_;
    fault_ = Fault::kNone;
    damaged_ = false;
    if (fault == Fault::kDropRecord) return Next();
    if (fault == Fault::kFlipByte) {
      copy_ = std::string(inner_->value());
      copy_.back() ^= 0x01;
      damaged_ = true;
    }
    return true;
  }
  std::string_view value() const override {
    return damaged_ ? std::string_view(copy_) : inner_->value();
  }

 private:
  mrmb::ValueIterator* const inner_;
  Fault fault_;
  bool damaged_ = false;
  std::string copy_;
};

// The reference reducer, fed damaged values in its first group.
class FaultyReducer final : public mrmb::Reducer {
 public:
  FaultyReducer(std::unique_ptr<mrmb::Reducer> inner, Fault fault)
      : inner_(std::move(inner)), fault_(fault) {}

  void Reduce(std::string_view key, mrmb::ValueIterator* values,
              mrmb::ReduceContext* context) override {
    FaultyValues faulty(values, fault_);
    fault_ = Fault::kNone;
    inner_->Reduce(key, &faulty, context);
  }

 private:
  const std::unique_ptr<mrmb::Reducer> inner_;
  Fault fault_;
};

// A workload shrunk to a few thousand records.
Workload Small(const std::string& name, uint64_t seed,
               const std::string& scratch) {
  Workload workload =
      MakeWorkload(name, seed, scratch + "/" + name, "").value();
  workload.conf.records_per_map = 2000;
  return workload;
}

// Runs the reference job with `fault` injected into reduce task 0 and
// applies the benchmark's reference check.
Status ReferenceCheck(const Workload& workload, Fault fault) {
  const mrmb::ReducerFactory inner = ReferenceReducer(workload);
  const mrmb::ReducerFactory reducer = [inner, fault](int task) {
    return std::make_unique<FaultyReducer>(inner(task),
                                           task == 0 ? fault : Fault::kNone);
  };
  // The baseline follows one job, as in the benchmark.
  if (!RunPaperJob(workload).ok()) return Status::Internal("warm-up failed");
  const ProcessSnapshot baseline = TakeSnapshot(workload.conf.spill_dir);
  CapturedOutput captured;
  const Result<mrmb::LocalJobResult> result =
      RunReferenceJob(workload, reducer, &captured);
  return CheckReference(workload, ComputeOracle(workload), result, captured,
                        baseline);
}

int failures = 0;

void Expect(const std::string& name, bool pass, const Status& status) {
  std::printf("%s %s (%s)\n", pass ? "PASS" : "FAIL", name.c_str(),
              status.ToString().c_str());
  if (!pass) ++failures;
}

void ExpectOk(const std::string& name, const Status& status) {
  Expect(name, status.ok(), status);
}

void ExpectFailure(const std::string& name, const Status& status) {
  Expect(name, !status.ok(), status);
}

int Main(const std::string& scratch) {
  const Workload avg = Small("avg-bytes-inproc", 42, scratch);
  const Workload avg_seed2 = Small("avg-bytes-inproc", 2, scratch);
  const Workload rand = Small("rand-text-tcp-disk", 42, scratch);
  const Workload skew = Small("skew-long-combine", 42, scratch);

  ExpectOk("clean job matches the oracle", ReferenceCheck(avg, Fault::kNone));
  ExpectOk("clean job matches the oracle on a second seed",
           ReferenceCheck(avg_seed2, Fault::kNone));
  ExpectOk("clean tcp + disk job matches the oracle and leaks nothing",
           ReferenceCheck(rand, Fault::kNone));
  ExpectOk("clean summing job matches the oracle",
           ReferenceCheck(skew, Fault::kNone));
  ExpectFailure("a flipped value byte fails",
                ReferenceCheck(avg, Fault::kFlipByte));
  ExpectFailure("a dropped record fails",
                ReferenceCheck(avg, Fault::kDropRecord));
  ExpectFailure("a flipped summed value fails",
                ReferenceCheck(skew, Fault::kFlipByte));

  // A timed job is checked by counters: a drifted one fails.
  const Result<mrmb::LocalJobResult> job = RunPaperJob(avg);
  const ProcessSnapshot baseline = TakeSnapshot("");
  ExpectOk("a repeated job repeats the reference counters",
           CheckJob(job, DataPlaneCounters(*job), OutputCounters(*job),
                    baseline, ""));
  Counters drifted = DataPlaneCounters(*job);
  drifted.back().second += 1;
  ExpectFailure("a drifted counter fails",
                CheckJob(job, drifted, OutputCounters(*job), baseline, ""));

  const int leaked = ::dup(STDERR_FILENO);
  ExpectFailure("a leaked fd fails", CheckNoLeaks(baseline, ""));
  ::close(leaked);
  ExpectOk("closing it passes again", CheckNoLeaks(baseline, ""));

  FailureLog log;
  log.Record(Status::OK(), "clean job");
  log.Record(ReferenceCheck(avg, Fault::kDropRecord), "damaged job");
  Expect("failures count against attempts",
         log.attempted() == 2 && log.failed() == 1, Status::OK());

  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::NowNanos();
  const std::string flag = "--scratch=";
  if (argc != 2 || std::string(argv[1]).rfind(flag, 0) != 0) {
    std::fprintf(stderr, "usage: perfbench_selftest --scratch=DIR\n");
    return 2;
  }
  return perfbench::Main(std::string(argv[1]).substr(flag.size()));
}

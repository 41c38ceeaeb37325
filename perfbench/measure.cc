// Clocks, process usage, order statistics, spans and the per-job ledger.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench.h"

namespace perfbench {

int64_t NowNanos() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return {seconds(ru.ru_utime) + seconds(ru.ru_stime), ru.ru_minflt,
          ru.ru_nvcsw + ru.ru_nivcsw};
}

void ResetPeakRss() {
  // Linux: writing 5 to clear_refs sets VmHWM back to VmRSS.
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

Usage StartSample() {
  // Hand freed heap back first, so that no job's figures depend on what
  // earlier jobs left in the allocator.
  malloc_trim(0);
  ResetPeakRss();
  return ReadUsage();
}

JobSample FinishSample(int64_t start_ns, const Usage& before) {
  const double wall_s = static_cast<double>(NowNanos() - start_ns) * 1e-9;
  const Usage after = ReadUsage();
  return {wall_s,
          {after.cpu_s - before.cpu_s,
           after.minor_faults - before.minor_faults,
           after.ctx_switches - before.ctx_switches},
          PeakRssMb()};
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double TailOf(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  // values[n-10 .. n-1] lie beyond values[n-11].
  return n <= 10 ? values.back() : values[n - 11];
}

int32_t ThreadIndex() {
  static std::atomic<int32_t> next{0};
  thread_local const int32_t index = next.fetch_add(1);
  return index;
}

int32_t SpanRecorder::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanRecorder::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Status WriteChromeTrace(const std::vector<Span>& spans,
                        const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    char line[384];
    std::snprintf(line, sizeof(line),
                  "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                  "\"id\":%d,\"parent\":%d,\"job\":%d,\"calls\":%lld}}",
                  i == 0 ? "" : ",\n", span.name, span.thread,
                  static_cast<double>(span.start_ns) * 1e-3,
                  static_cast<double>(span.end_ns - span.start_ns) * 1e-3,
                  span.id, span.parent, span.job,
                  static_cast<long long>(span.calls));
    out << line;
  }
  out << "\n]}\n";
  out.close();
  if (!out) return Status::IOError("cannot write " + path);
  return Status::OK();
}

JobLedger BuildLedger(const std::vector<Span>& spans, int32_t job) {
  JobLedger ledger;
  const Span* root = nullptr;
  for (const Span& span : spans) {
    if (span.job == job && span.parent < 0) root = &span;
  }
  if (root == nullptr || root->end_ns <= root->start_ns) return ledger;

  // The job's Map and Reduce calls, each with the time of its layers in ns.
  // A call's own layer ("<name>.self") is its time minus its children's.
  struct Call {
    const Span* span = nullptr;
    std::vector<std::pair<std::string, double>> layers;
    double wall_ns = 0;  // the call's part of the job's wall time
  };
  std::vector<Call> calls;
  std::map<int32_t, size_t> call_of;
  for (const Span& span : spans) {
    if (span.job != job || span.parent != root->id) continue;
    const double ns = static_cast<double>(span.end_ns - span.start_ns);
    call_of[span.id] = calls.size();
    calls.push_back({&span, {{std::string(span.name) + ".self", ns}}, 0});
    if (std::string_view(span.name) == kMapFnSpan) {
      ledger.map_fn_busy_s += ns * 1e-9;
    }
  }
  for (const Span& span : spans) {
    if (span.job != job) continue;
    const auto it = call_of.find(span.parent);
    if (it == call_of.end()) continue;
    const double ns = static_cast<double>(span.end_ns - span.start_ns);
    Call& call = calls[it->second];
    call.layers.emplace_back(span.name, ns);
    call.layers.front().second -= ns;
    const std::string_view name = span.name;
    if (name == kRecordGenSpan) ledger.record_gen_busy_s += ns * 1e-9;
    if (name == kEmitSpan) ledger.emit_busy_s += ns * 1e-9;
    if (name == kNextSpan) ledger.next_busy_s += ns * 1e-9;
  }
  for (const Call& call : calls) {
    if (std::string_view(call.span->name) == kReduceFnSpan) {
      ledger.reduce_fn_self_s += call.layers.front().second * 1e-9;
    }
  }

  // Sweep the job's interval, splitting each instant among the open calls.
  std::vector<std::pair<int64_t, int64_t>> events;  // (time, +/-(call + 1))
  for (size_t i = 0; i < calls.size(); ++i) {
    const int64_t tag = static_cast<int64_t>(i) + 1;
    events.emplace_back(
        std::clamp(calls[i].span->start_ns, root->start_ns, root->end_ns),
        tag);
    events.emplace_back(
        std::clamp(calls[i].span->end_ns, root->start_ns, root->end_ns),
        -tag);
  }
  std::sort(events.begin(), events.end());
  std::vector<size_t> open;
  int64_t previous = root->start_ns;
  double covered_ns = 0;
  for (const auto& [time, tag] : events) {
    const int64_t dt = time - previous;
    if (dt > 0 && !open.empty()) {
      covered_ns += static_cast<double>(dt);
      for (size_t i : open) {
        calls[i].wall_ns +=
            static_cast<double>(dt) / static_cast<double>(open.size());
      }
    }
    previous = time;
    if (tag > 0) {
      open.push_back(static_cast<size_t>(tag - 1));
    } else {
      const auto it = std::find(open.begin(), open.end(),
                                static_cast<size_t>(-tag - 1));
      if (it != open.end()) open.erase(it);
    }
  }

  const double wall_ns = static_cast<double>(root->end_ns - root->start_ns);
  ledger.wall_s = wall_ns * 1e-9;
  ledger.unattributed_share = 1.0 - covered_ns / wall_ns;
  ledger.wall_shares["unattributed"] = ledger.unattributed_share;
  for (const Call& call : calls) {
    const double call_ns =
        static_cast<double>(call.span->end_ns - call.span->start_ns);
    if (call_ns <= 0) continue;
    for (const auto& [layer, ns] : call.layers) {
      ledger.wall_shares[layer] += call.wall_ns / wall_ns * (ns / call_ns);
    }
  }
  return ledger;
}

}  // namespace perfbench

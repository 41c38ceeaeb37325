// mrmb_suite: the standardized suite runner.
//
// Executes a declarative .suite file (see src/mrmb/suite_spec.h for the
// syntax) and prints paper-style sweep tables. With no --spec argument it
// runs a built-in specification covering the paper's Fig. 2 setup at
// reduced sizes.
//
// With --out=FILE every measurement is also written as a JSON report, via
// a temp file + rename so a concurrent reader never observes a torn
// document. SIGINT stops the sweep between measurements and flushes
// whatever finished as a partial report carrying "interrupted": true; the
// process then exits 130.
//
//   ./mrmb_suite [--spec=path/to/file.suite] [--csv] [--out=FILE]

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "mrmb/flags.h"
#include "mrmb/report.h"
#include "mrmb/suite_spec.h"

namespace {

constexpr char kDefaultSpec[] = R"(# Built-in demo suite: the paper's Fig. 2
# configuration at reduced sizes. Provide --spec=FILE for your own sweeps.

[fig2-mr-avg]
pattern = avg
network = 1gige, 10gige, ipoib-qdr
shuffle = 4GB, 8GB
maps = 16
reduces = 8
slaves = 4

[fig2-mr-skew]
pattern = skew
network = 1gige, ipoib-qdr
shuffle = 4GB, 8GB
maps = 16
reduces = 8
slaves = 4
)";

volatile std::sig_atomic_t g_interrupted = 0;

void HandleSigint(int) { g_interrupted = 1; }

struct Measurement {
  std::string section;
  std::string series;
  std::string shuffle;
  double job_seconds = 0;
};

// Temp file + rename: a crash (or Ctrl-C) mid-write never leaves a torn
// JSON document where the report should be.
bool WriteJsonAtomic(const std::string& path, const std::string& json) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(json.data(), 1, json.size(), f) == json.size();
  const bool synced = std::fflush(f) == 0 && fsync(fileno(f)) == 0;
  if (std::fclose(f) != 0 || !wrote || !synced) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::string ReportJson(const std::vector<Measurement>& measurements,
                       bool interrupted) {
  std::ostringstream json;
  json << "{\n"
       << "  \"schema\": \"mrmb-suite-report/1\",\n"
       << "  \"generated_by\": \"tools/mrmb_suite\",\n"
       << "  \"interrupted\": " << (interrupted ? "true" : "false") << ",\n"
       << "  \"measurements\": [\n";
  for (size_t i = 0; i < measurements.size(); ++i) {
    const Measurement& m = measurements[i];
    char seconds[32];
    std::snprintf(seconds, sizeof(seconds), "%.6f", m.job_seconds);
    json << "    {\"section\": \"" << m.section << "\", \"series\": \""
         << m.series << "\", \"shuffle\": \"" << m.shuffle
         << "\", \"job_seconds\": " << seconds << "}"
         << (i + 1 < measurements.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  return json.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mrmb;
  auto flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::cerr << flags_or.status().ToString() << "\n";
    return 2;
  }
  if (flags_or->help_requested()) {
    std::cout << "usage: mrmb_suite [--spec=FILE] [--csv] [--out=FILE]\n\n"
                 "Runs every sweep described in the .suite file; --out also\n"
                 "writes the measurements as JSON (atomically; SIGINT\n"
                 "flushes a partial report marked interrupted). Syntax:\n"
              << kDefaultSpec
              << "\nFault-injection keys (per section, all optional):\n"
                 "  map-fail-prob, reduce-fail-prob, straggler-prob,\n"
                 "  straggler-slowdown, speculative, max-attempts,\n"
                 "  crash-prob, fetch-fail-prob, max-fetch-failures,\n"
                 "  blacklist-threshold, and\n"
                 "  fault-plan = kill_node:1@t=40s;recover_node:1@t=90s;"
                 "degrade_link:2@t=10s,x0.25\n";
    return 0;
  }
  auto spec_path = flags_or->GetString("spec", "");
  auto csv = flags_or->GetBool("csv", false);
  auto out_path = flags_or->GetString("out", "");
  if (!spec_path.ok() || !csv.ok() || !out_path.ok()) return 2;
  if (const Status unread = flags_or->CheckAllRead(); !unread.ok()) {
    std::cerr << unread.ToString() << "\n";
    return 2;
  }

  std::string text = kDefaultSpec;
  if (!spec_path->empty()) {
    std::ifstream file(*spec_path);
    if (!file) {
      std::cerr << "cannot open suite spec: " << *spec_path << "\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    text = buffer.str();
  }

  auto spec = ParseSuiteSpec(text);
  if (!spec.ok()) {
    std::cerr << "bad suite spec: " << spec.status().ToString() << "\n";
    return 2;
  }

  std::signal(SIGINT, HandleSigint);
  std::vector<Measurement> measurements;
  Status status = Status::OK();
  for (const SuiteSection& section : spec->sections) {
    auto resolved = ResolveSection(section);
    if (!resolved.ok()) {
      status = resolved.status();
      break;
    }
    SweepTable table(resolved->name, "ShuffleSize");
    for (size_t s = 0; s < resolved->options.size() && status.ok(); ++s) {
      for (size_t x = 0; x < resolved->options[s].size(); ++x) {
        if (g_interrupted) break;
        auto result = RunMicroBenchmark(resolved->options[s][x]);
        if (!result.ok()) {
          status = result.status();
          break;
        }
        table.Add(resolved->series_labels[s], resolved->x_labels[x],
                  result->job.job_seconds);
        measurements.push_back({resolved->name, resolved->series_labels[s],
                                resolved->x_labels[x],
                                result->job.job_seconds});
      }
      if (g_interrupted) break;
    }
    if (resolved->series_labels.size() > 1) {
      table.PrintWithImprovement(resolved->series_labels[0], &std::cout);
    } else {
      table.Print(&std::cout);
    }
    if (*csv) table.PrintCsv(&std::cout);
    if (g_interrupted || !status.ok()) break;
  }

  if (!out_path->empty()) {
    const std::string json =
        ReportJson(measurements, g_interrupted != 0);
    if (*out_path == "-") {
      std::cout << json;
    } else if (WriteJsonAtomic(*out_path, json)) {
      std::cerr << "wrote " << *out_path << " (" << measurements.size()
                << " measurements)\n";
    } else {
      std::cerr << "cannot write " << *out_path << "\n";
      if (status.ok() && !g_interrupted) return 1;
    }
  }
  if (!status.ok()) {
    std::cerr << "suite failed: " << status.ToString() << "\n";
    return 1;
  }
  return g_interrupted ? 130 : 0;
}

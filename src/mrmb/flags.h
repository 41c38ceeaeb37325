// Minimal --flag=value command-line parsing for the bench and example
// binaries. Not a general-purpose flags library: just enough to vary the
// benchmark-level parameters the paper's suite exposes.

#ifndef MRMB_MRMB_FLAGS_H_
#define MRMB_MRMB_FLAGS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "common/status.h"
#include "common/units.h"
#include "mrmb/benchmark.h"

namespace mrmb {

class Flags {
 public:
  // Parses "--name=value" and "--name value" arguments. Unrecognized
  // positional arguments are an error; "--help" sets help_requested().
  static Result<Flags> Parse(int argc, char** argv);

  bool Has(const std::string& name) const;
  bool help_requested() const { return help_; }

  // Typed getters with defaults; flag-value parse errors are returned as
  // Status so binaries can print usage. Has and every getter record the
  // name as read, present or not.
  Result<std::string> GetString(const std::string& name,
                                const std::string& default_value) const;
  Result<int64_t> GetInt(const std::string& name, int64_t default_value) const;
  Result<double> GetDouble(const std::string& name,
                           double default_value) const;
  Result<bool> GetBool(const std::string& name, bool default_value) const;
  // Accepts "8GB", "512KB", plain bytes.
  Result<int64_t> GetBytes(const std::string& name,
                           int64_t default_value) const;

  // InvalidArgument naming every flag on the command line that nothing
  // read. Binaries call it once all their reads are done, so a misspelt or
  // retired flag fails the run instead of silently doing nothing.
  Status CheckAllRead() const;

 private:
  // The flag's value, or null when absent; records the name as read.
  const std::string* Find(const std::string& name) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
  bool help_ = false;
};

// Applies the shared fault-tolerance/fault-injection flags onto `options`:
//   --map-fail-prob=P --reduce-fail-prob=P   per-attempt task failures
//   --straggler-prob=P --straggler-slowdown=X
//   --speculative[=BOOL] --max-attempts=N
//   --fault-plan="kill_node:3@t=40s;degrade_link:2@t=10s,x0.25;..."
//   --crash-prob=P --fetch-fail-prob=P       (override the plan's hazards)
//   --max-fetch-failures=N --blacklist-threshold=N
//   --local-threads=N --task-timeout-ms=MS --checksum[=BOOL]
//   --local-fault-plan="fail_map:3@a=0;corrupt_map:2@a=0,p=1;..."
// Flags that are absent leave the corresponding option untouched.
Status ApplyFaultToleranceFlags(const Flags& flags, BenchmarkOptions* options);

// One usage paragraph describing the flags ApplyFaultToleranceFlags reads.
const char* FaultToleranceFlagsHelp();

}  // namespace mrmb

#endif  // MRMB_MRMB_FLAGS_H_

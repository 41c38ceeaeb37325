// Resource-leak test for the local runner. A job that holds every kind of
// engine resource — tcp shuffle sockets and reactor threads, task and sort
// pool threads, lz4 extent files in the spill store, the job journal — must
// give all of them back: after each run (past a warm-up) this process has the
// same open fds, threads and spill-dir entries as before it.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "mapred/local_runner.h"

namespace mrmb {
namespace {

namespace fs = std::filesystem;

int64_t CountEntries(const std::string& dir, bool recursive) {
  std::error_code ec;
  int64_t entries = 0;
  if (recursive) {
    for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      ++entries;
    }
  } else {
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      ++entries;
    }
  }
  return entries;
}

int64_t OpenFds() { return CountEntries("/proc/self/fd", false); }
int64_t Threads() { return CountEntries("/proc/self/task", false); }

// A joined thread stays listed under /proc/self/task for a moment after
// pthread_join returns, until the kernel reaps it. The engine's thread
// pools wait for that before their destructors return; the test still
// allows ~100 ms, so a slow reap is not reported as a leak.
int64_t SettledThreads(int64_t want) {
  int64_t now = Threads();
  for (int i = 0; i < 100 && now != want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    now = Threads();
  }
  return now;
}

JobConf LeakConf(const std::string& spill_dir, bool journaled) {
  JobConf conf;
  conf.num_maps = 8;
  conf.num_reduces = 4;
  conf.record.type = DataType::kText;
  conf.record.key_size = 50;
  conf.record.value_size = 50;
  conf.records_per_map = 2000;
  conf.local_threads = 3;
  conf.shuffle_transport = ShuffleTransport::kTcp;
  conf.fetch_parallel_streams = 4;
  conf.map_output_codec = MapOutputCodec::kLz4;
  conf.spill_budget_bytes = 0;  // every sealed spill goes to an extent
  conf.spill_dir = spill_dir;
  conf.job_journal = journaled;
  conf.seed = 42;
  return conf;
}

TEST(LocalRunnerLeakTest, TcpSpillAndJournaledJobsReturnEveryResource) {
  char tmpl[] = "/tmp/mrmb-leak-test-XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string root = tmpl;
  for (const bool journaled : {false, true}) {
    const JobConf conf =
        LeakConf(root + (journaled ? "/journaled" : "/plain"), journaled);
    fs::create_directories(conf.spill_dir);
    // A warm-up job first: it starts what a process creates only once (a
    // sanitizer's helper thread), and a journaled job's first run leaves
    // the journal and committed output that later runs of the same job
    // replace (resuming a finished job is a no-op).
    const Result<LocalJobResult> warm_up = LocalJobRunner::RunStandalone(conf);
    ASSERT_TRUE(warm_up.ok()) << warm_up.status().ToString();
    for (int run = 0; run < 3; ++run) {
      SCOPED_TRACE(testing::Message()
                   << (journaled ? "journaled" : "plain") << " run " << run);
      const int64_t fds = OpenFds();
      const int64_t threads = Threads();
      const int64_t entries = CountEntries(conf.spill_dir, true);
      const Result<LocalJobResult> result =
          LocalJobRunner::RunStandalone(conf);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_GT(result->spill_extents, 0);
      EXPECT_EQ(OpenFds(), fds);
      EXPECT_EQ(SettledThreads(threads), threads);
      EXPECT_EQ(CountEntries(conf.spill_dir, true), entries);
    }
  }
  std::error_code ec;
  fs::remove_all(root, ec);
}

}  // namespace
}  // namespace mrmb

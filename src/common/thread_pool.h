// A bounded worker pool and a cooperative cancellation token.
//
// ThreadPool runs submitted closures on a fixed set of worker threads; the
// local task-attempt engine uses it to execute map/reduce attempts in
// parallel. Determinism is the caller's job: workers may run tasks in any
// order, so callers must write results into per-task slots and aggregate
// them in task order, never in completion order.
//
// CancelToken is the watchdog's lever: a watchdog thread flips the token of
// an overdue attempt and the attempt observes it at its next cancellation
// point (record boundaries, injected delays) and bails out with
// DeadlineExceeded. There is no pre-emptive kill — code that never reaches
// a cancellation point cannot be reclaimed, the same contract as Hadoop's
// task-umbilical ping timeout needing a responsive task JVM.

#ifndef MRMB_COMMON_THREAD_POOL_H_
#define MRMB_COMMON_THREAD_POOL_H_

#include <unistd.h>  // pid_t, gettid

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mrmb {

class CancelToken {
 public:
  void Cancel() {
    cancelled_.store(true, std::memory_order_release);
    // Take the lock so a sleeper past the predicate check cannot miss the
    // notify.
    { std::lock_guard<std::mutex> lock(mutex_); }
    cv_.notify_all();
  }

  // Lock-free; cheap enough to poll once per emitted record.
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  // Blocks for `ms` milliseconds or until cancelled, whichever comes first.
  // Returns true if the full sleep elapsed, false if cancelled early. This
  // is the cancellation point injected delays use, so a watchdog can cut a
  // stalled attempt short instead of waiting out the stall.
  bool SleepFor(int64_t ms) {
    std::unique_lock<std::mutex> lock(mutex_);
    return !cv_.wait_for(lock, std::chrono::milliseconds(ms),
                         [this] { return cancelled(); });
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::mutex mutex_;
  std::condition_variable cv_;
};

class ThreadPool {
 public:
  // Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);
  // Joins all workers; pending tasks are still drained first. Returns once
  // the kernel has reaped them too (or after 100 ms per worker): join
  // returns a moment before a thread leaves /proc/self/task, and a
  // destroyed pool must leave the process with the threads it found.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues one task into lane 0. Never blocks (queues are unbounded); the
  // pool is "bounded" in workers, which is what limits concurrent attempts.
  void Submit(std::function<void()> task);

  // Enqueues one task into `lane` (>= 0; lanes are created on demand).
  // Each lane is FIFO, but idle workers drain the highest-numbered
  // non-empty lane first. The shuffle pipeline uses this to run short
  // fetch/merge events (high lane) ahead of queued map attempts (lane 0)
  // without preempting anything already running.
  void Submit(int lane, std::function<void()> task);

  // Blocks until every submitted task in every lane has finished running.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  // Highest-numbered lane with a queued task, or -1. Caller holds mutex_.
  int PickLane() const;

  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_cv_;   // workers wait for tasks
  std::condition_variable idle_cv_;   // Wait() waits for drain
  std::vector<std::deque<std::function<void()>>> lanes_;
  int64_t in_flight_ = 0;  // tasks queued or running, all lanes
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
  std::vector<pid_t> tids_;  // worker i's gettid(), set as it starts
};

}  // namespace mrmb

#endif  // MRMB_COMMON_THREAD_POOL_H_

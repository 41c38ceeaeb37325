#include "common/thread_pool.h"

#include <algorithm>
#include <string>
#include <utility>

namespace mrmb {

ThreadPool::ThreadPool(int num_threads)
    : tids_(static_cast<size_t>(std::max(1, num_threads))) {
  workers_.reserve(tids_.size());
  for (size_t i = 0; i < tids_.size(); ++i) {
    workers_.emplace_back([this, i] {
      tids_[i] = ::gettid();
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (size_t i = 0; i < workers_.size(); ++i) {
    workers_[i].join();
    const std::string task = "/proc/self/task/" + std::to_string(tids_[i]);
    for (int n = 0; n < 1000 && ::access(task.c_str(), F_OK) == 0; ++n) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  Submit(0, std::move(task));
}

void ThreadPool::Submit(int lane, std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const size_t index = static_cast<size_t>(std::max(0, lane));
    if (lanes_.size() <= index) lanes_.resize(index + 1);
    lanes_[index].push_back(std::move(task));
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

int ThreadPool::PickLane() const {
  for (int lane = static_cast<int>(lanes_.size()) - 1; lane >= 0; --lane) {
    if (!lanes_[static_cast<size_t>(lane)].empty()) return lane;
  }
  return -1;
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return shutdown_ || PickLane() >= 0; });
      const int lane = PickLane();
      if (lane < 0) return;  // shutdown with nothing left to drain
      auto& queue = lanes_[static_cast<size_t>(lane)];
      task = std::move(queue.front());
      queue.pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace mrmb

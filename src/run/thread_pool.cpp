#include "run/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace gdf::run {

ThreadPool::ThreadPool(unsigned threads)
    : queues_(std::max(1u, threads)) {
  threads_.reserve(queues_.size());
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queues_[next_queue_].push_back(std::move(task));
    next_queue_ = (next_queue_ + 1) % queues_.size();
  }
  wake_.notify_one();
}

void ThreadPool::submit(Group& group, std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // push_back before ++pending: if the push throws, the count must not
    // have drifted (a phantom pending wedges wait() forever).
    group.tasks.push_back(std::move(task));
    ++group.pending;
    if (!group.queued) {
      group.queued = true;
      groups_.push_back(&group);
    }
  }
  wake_.notify_one();
  // A waiter already parked on this group must see the new task too —
  // it may be the only thread left to run it.
  group_done_.notify_all();
}

std::function<void()> ThreadPool::pop_group_task(Group& group) {
  std::function<void()> task = std::move(group.tasks.front());
  group.tasks.pop_front();
  if (group.tasks.empty()) {
    group.queued = false;
    groups_.erase(std::find(groups_.begin(), groups_.end(), &group));
  }
  return task;
}

void ThreadPool::finish_group_task(Group& group) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    --group.pending;
  }
  // After the unlock this thread never touches `group` again — a waiter
  // may already be destroying it. The CV is pool-owned precisely so this
  // notify is on memory that outlives the group. Every completion
  // notifies, not just the last: a wait(group, done) may be waiting for
  // exactly this task.
  group_done_.notify_all();
}

void ThreadPool::wait(Group& group, const std::function<bool()>& done) {
  // A helped task that throws must not leave the join early: the group's
  // remaining tasks still point at the caller's Group object, so wait()
  // then drops `done`, quiesces the group completely (accounting
  // intact), and only then rethrows the first exception.
  std::exception_ptr error;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // `done` runs under the lock: a task's results are written before its
    // finish_group_task takes the lock to notify, so the completion that
    // makes `done` true cannot slip in between this check and the park.
    if (!error && done && done()) {
      break;
    }
    if (!group.tasks.empty()) {
      // Help: run the group's own oldest task on this thread. Never
      // steals unrelated work — the waiter's latency is bounded by its
      // group.
      std::function<void()> task = pop_group_task(group);
      lock.unlock();
      try {
        task();
      } catch (...) {
        if (!error) {
          error = std::current_exception();
        }
      }
      finish_group_task(group);
      lock.lock();
      continue;
    }
    if (group.pending == 0) {
      break;
    }
    group_done_.wait(lock);
  }
  lock.unlock();
  if (error) {
    std::rethrow_exception(error);
  }
}

bool ThreadPool::pop_task(std::size_t self, std::function<void()>* task) {
  if (!queues_[self].empty()) {
    *task = std::move(queues_[self].front());
    queues_[self].pop_front();
    return true;
  }
  // Fork-join group tasks next: helping a sharded run already in flight
  // beats starting fresh work for tail latency. The popped closure is
  // wrapped so the group's accounting happens wherever it runs.
  if (!groups_.empty()) {
    Group& group = *groups_.front();
    std::function<void()> inner = pop_group_task(group);
    *task = [this, &group, inner = std::move(inner)] {
      // Accounting must survive a throwing task — a leaked pending count
      // wedges wait() forever. (A throw here still terminates like any
      // throwing pool task; the waiter-helping path in wait() is the one
      // that reports exceptions gracefully.)
      try {
        inner();
      } catch (...) {
        finish_group_task(group);
        throw;
      }
      finish_group_task(group);
    };
    return true;
  }
  for (std::size_t k = 1; k < queues_.size(); ++k) {
    std::deque<std::function<void()>>& victim =
        queues_[(self + k) % queues_.size()];
    if (!victim.empty()) {
      *task = std::move(victim.front());
      victim.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t self) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || pop_task(self, &task); });
      if (!task) {
        return;  // stop requested and nothing left to run
      }
    }
    task();
  }
}

unsigned ThreadPool::resolve_jobs(unsigned requested) {
  if (requested != 0) {
    return requested;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace gdf::run

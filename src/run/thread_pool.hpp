// A small work-stealing thread pool for whole-ATPG-run granularity, plus
// fork-join task groups for intra-run fault sharding.
//
// Each worker owns a deque: it pops its own work FIFO (submission order is
// the scheduler's priority order — see run/sweep's longest-job-first
// pass) and steals FIFO from the other workers when its deque runs dry,
// so a skewed submission still keeps every worker busy. Tasks here are
// entire ATPG runs or single-fault generation slices — micro- to
// multi-second each — so all queues share one mutex; the queue operations
// are nanoseconds against that grain and a single lock keeps the pool
// trivially race-free.
//
// A Group is a fork-join region inside one task: submit(group, ...) fans
// work out, wait(group) joins. The waiting thread *helps* — it executes
// the group's own tasks while it waits — so a worker running a sharded
// ATPG cell can fan its generation slices out on the same pool without
// ever deadlocking (even a single-threaded pool makes progress: the
// waiter drains its own group). wait(group, done) is the same join cut
// short once the caller's condition holds, which is how run/shard's
// sliding window commits each slice as soon as it is the oldest finished
// one. Idle workers pick group tasks up too, which is what lets one big
// circuit spread over every core.
//
// The pool never touches the results: tasks communicate through whatever
// channel the caller closes over (see run_sweep, which restores
// deterministic ordering on the consumer side, and run_sharded, whose
// slices publish their completion with a release store).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "base/cancel.hpp"

namespace gdf::run {

class ThreadPool {
 public:
  /// A fork-join region: tasks submitted against a group are counted, and
  /// wait() returns only when every one of them has finished. A Group is
  /// owned by the caller, must outlive its tasks (a wait() without a
  /// condition is the one join that proves they are over), and is
  /// reusable after a completed wait(). Not copyable or movable (workers
  /// hold pointers).
  class Group {
   public:
    Group() = default;
    Group(const Group&) = delete;
    Group& operator=(const Group&) = delete;

   private:
    friend class ThreadPool;
    std::deque<std::function<void()>> tasks;  ///< guarded by pool mutex
    std::size_t pending = 0;  ///< submitted, not yet finished
    bool queued = false;      ///< registered in groups_ (tasks nonempty)
    // Completion is signalled on the *pool's* group_done_ CV, not a
    // per-group one: a waiter may destroy its Group the instant pending
    // hits zero, and the signalling thread must not touch freed memory.
  };

  /// Spawns `threads` workers (at least one).
  explicit ThreadPool(unsigned threads);

  /// Signals shutdown and joins. Tasks still queued when the destructor
  /// runs are dropped, not executed — drain your channel (and wait() your
  /// groups) first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task (round-robin across worker deques). Thread-safe.
  void submit(std::function<void()> task);

  /// Enqueues a task against `group`. Thread-safe; callable from inside
  /// pool tasks (that is the sharding pattern).
  void submit(Group& group, std::function<void()> task);

  /// Blocks until every task submitted against `group` has finished — or,
  /// when `done` is given, until `done()` holds, whichever comes first —
  /// executing the group's queued tasks (oldest first) on the calling
  /// thread while it waits. `done` is evaluated with the pool's lock held,
  /// on entry and whenever the waiter wakes or finishes a helped task, so
  /// it must be cheap and must not call into the pool. Callable from worker
  /// threads and external threads alike. If a helped task throws, `done`
  /// is ignored and the group is fully quiesced (remaining tasks run,
  /// accounting intact) before the first exception is rethrown; group
  /// tasks run by pool workers must not throw (like plain submits, a
  /// worker-side throw terminates).
  void wait(Group& group, const std::function<bool()>& done = {});

  unsigned thread_count() const {
    return static_cast<unsigned>(threads_.size());
  }

  /// Wires a cancellation token through the pool: the pool itself keeps
  /// scheduling (tasks must run so channels drain), but cooperative
  /// consumers — the sharded run between commits, the flow's decision
  /// loops — poll it via cancel_token()/cancel_requested() and unwind
  /// early. Set before tasks that should observe it are submitted; pass
  /// nullptr to unwire.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }
  const CancelToken* cancel_token() const { return cancel_; }
  bool cancel_requested() const { return gdf::cancel_requested(cancel_); }

  /// Maps a --jobs style request onto a worker count: 0 means "use the
  /// hardware", and the result is always at least 1.
  static unsigned resolve_jobs(unsigned requested);

  /// Largest worker count --jobs and --shard-faults accept. A sweep that
  /// can shard starts the requested number of threads as-is, so the
  /// parsers reject anything larger as an input error.
  static constexpr unsigned kMaxThreads = 1024;

 private:
  void worker_loop(std::size_t self);
  /// Pops the next task for worker `self` (own front, then a registered
  /// group's front, then steal another deque's front). Caller holds
  /// mutex_.
  bool pop_task(std::size_t self, std::function<void()>* task);
  /// Pops the front task of `group`'s queue, deregistering the group when
  /// that empties it. Caller holds mutex_.
  std::function<void()> pop_group_task(Group& group);
  void finish_group_task(Group& group);

  std::mutex mutex_;
  std::condition_variable wake_;
  /// Signalled whenever any group task finishes (and when a group task is
  /// submitted); waiters re-check their own group and condition.
  /// Pool-owned so it outlives every Group.
  std::condition_variable group_done_;
  std::vector<std::deque<std::function<void()>>> queues_;
  std::vector<Group*> groups_;  ///< groups with queued tasks, FIFO
  std::size_t next_queue_ = 0;  ///< round-robin submission cursor
  bool stop_ = false;
  const CancelToken* cancel_ = nullptr;  ///< see set_cancel_token
  std::vector<std::thread> threads_;
};

}  // namespace gdf::run

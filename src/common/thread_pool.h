// Work-stealing thread pool for running independent scenarios in parallel.
//
// The harness layer runs one `Simulation` per worker; simulations never
// share mutable state, so the pool only needs cheap task distribution, not
// fine-grained synchronization. Each worker owns a deque: it pushes/pops its
// own work at the back and steals from the front of a victim's deque when
// its own runs dry. External `Submit` calls distribute round-robin across
// the worker deques so a grid of N scenarios starts out evenly spread.
//
// Semantics:
//   * Tasks may submit further tasks (they land on the submitting worker's
//     own deque, LIFO — good locality for recursive decomposition).
//   * `Wait()` blocks until every task submitted so far has finished.
//   * The destructor drains: all queued tasks run before the threads join.
//     (Tests rely on this: shutdown with queued work loses nothing.)
//
// The pool is intentionally small and exception-strict: a task that throws
// terminates (simulation tasks are expected to catch their own failures and
// report them as data — see harness::ScenarioRunner).

#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ampere {

class ThreadPool {
 public:
  // `num_threads` <= 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(int num_threads = 0);

  // Drains all queued work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. Thread-safe; callable from workers and from outside.
  void Submit(std::function<void()> task);

  // Blocks until all tasks submitted before the call have completed.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Index of the calling worker thread in [0, num_threads), or -1 when
  // called from a non-worker thread. Harness workers use this to pick
  // per-worker scratch state without a map lookup.
  static int CurrentWorkerIndex();

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(size_t self);
  // Pops from own back, else steals from another queue's front.
  bool TryGetTask(size_t self, std::function<void()>& task);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex wait_mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::atomic<size_t> pending_{0};   // Submitted but not yet finished.
  std::atomic<size_t> next_queue_{0};
  std::atomic<bool> shutdown_{false};
};

}  // namespace ampere

#endif  // SRC_COMMON_THREAD_POOL_H_

// A fixed-size worker pool for CPU-bound task fan-out.
//
// The continuous engine uses one pool for two kinds of work (see
// docs/INTERNALS.md, "Parallel evaluation" and "Intra-query
// parallelism"):
//
//  * inter-query: the scheduler submits one task per query due at an
//    evaluation instant (Submit + future barrier, coordinator-only);
//  * intra-query: the matcher fans the seed candidates of one MATCH out
//    in morsels — from a pool worker that is itself running an
//    inter-query task (SubmitBatch + WaitAll).
//
// Nested submission is what SubmitBatch/WaitAll exist for: a plain
// future.wait() from a worker could deadlock the fixed-size pool (every
// worker parked waiting for subtasks that are queued behind the waiters),
// so WaitAll lets the waiting thread *help drain* — it claims and runs
// the batch's unstarted tasks inline, making progress independent of free
// workers.
//
//   ThreadPool pool(4);
//   std::future<void> done = pool.Submit([] { ...work... });
//   done.get();  // rethrows nothing: tasks must not throw (Status-based
//                // error handling, like the rest of the library)
//
//   ThreadPool::BatchPtr batch = pool.SubmitBatch(std::move(tasks));
//   pool.WaitAll(batch);  // safe from a pool worker or the coordinator
//
// Thread-safety: Submit / SubmitBatch / WaitAll may be called from any
// thread (including pool workers); construction and destruction are
// coordinator-only. The destructor drains already-queued tasks, then
// joins.
#ifndef SERAPH_COMMON_THREAD_POOL_H_
#define SERAPH_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace seraph {

class ThreadPool {
 public:
  // A group of tasks whose completion can be awaited with WaitAll while
  // the waiting thread helps execute them. Opaque: obtained from
  // SubmitBatch, consumed by WaitAll.
  class Batch {
   private:
    friend class ThreadPool;
    struct Entry {
      std::function<void()> fn;
      std::atomic<bool> claimed{false};
    };
    // Claims `entry` and runs it; no-op when another thread already did.
    void RunEntry(Entry* entry);

    // unique_ptr keeps Entry addresses (and their atomic flags) stable.
    std::vector<std::unique_ptr<Entry>> entries_;
    std::mutex mu_;
    std::condition_variable done_;
    size_t remaining_ = 0;
  };
  using BatchPtr = std::shared_ptr<Batch>;

  // Spawns `num_threads` workers (clamped to at least 1; pass
  // ResolveThreads(0) for one per hardware thread).
  explicit ThreadPool(int num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Drains queued tasks, then joins every worker.
  ~ThreadPool();

  // Number of worker threads.
  int size() const { return static_cast<int>(workers_.size()); }

  // Enqueues `task` and returns a future that becomes ready when it has
  // run. Tasks must not throw: report failures through captured state
  // (the engine captures a Status per task).
  std::future<void> Submit(std::function<void()> task);

  // Enqueues `tasks` as one batch and returns its handle. Each task runs
  // exactly once — on whichever pool worker dequeues it first, or inline
  // on the thread that calls WaitAll, whichever claims it. Tasks must not
  // throw (same contract as Submit) and must not themselves call WaitAll
  // on a batch containing their own entry.
  BatchPtr SubmitBatch(std::vector<std::function<void()>> tasks);

  // Blocks until every task of `batch` has run. The calling thread —
  // pool worker or not — first claims and runs all still-unstarted tasks
  // of the batch inline, so completion never depends on a free worker:
  // nested fan-out from inside a pool task cannot deadlock the pool.
  // Establishes a happens-before edge from every task's writes to the
  // caller's subsequent reads. May be called at most once per batch from
  // one thread (the submitter).
  void WaitAll(const BatchPtr& batch);

  // Index of the calling pool worker in [0, size()), or -1 when called
  // from a thread that is not a pool worker (e.g. the coordinator).
  // Worker ids are stable for the pool's lifetime; the engine stamps
  // them onto trace spans.
  static int CurrentWorkerId();

  // Maps a configuration value to a concrete thread count: n >= 1 is
  // taken literally; n <= 0 means one thread per hardware thread (with a
  // fallback of 1 when the hardware cannot be queried).
  static int ResolveThreads(int requested);

  // Upper bound on a configured thread count: tools reject larger
  // --threads values and environment mirrors instead of starting them.
  static constexpr int kMaxThreads = 4096;

 private:
  void WorkerLoop(int worker_id);

  std::mutex mu_;
  std::condition_variable wake_;
  std::deque<std::packaged_task<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace seraph

#endif  // SERAPH_COMMON_THREAD_POOL_H_

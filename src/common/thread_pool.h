#ifndef FIXREP_COMMON_THREAD_POOL_H_
#define FIXREP_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace fixrep {

// Persistent worker pool with dynamic chunk claiming.
//
// The old parallel repair path spawned std::threads per call and sharded
// rows statically, so every table paid thread start-up and a straggler
// shard bounded the whole call. Here the workers are started once and
// parked on a condition variable; ParallelFor publishes one job whose
// row ranges are claimed chunk-by-chunk from a shared atomic cursor, so
// fast participants automatically absorb work that slow ones leave
// behind (the pooled analogue of work stealing, without per-worker
// deques — there is one global queue position).
//
// The calling thread always participates (slot 0), so a pool with zero
// workers degrades to an inline loop. One ParallelFor runs at a time;
// concurrent callers serialize on an internal mutex.
//
// Besides data-parallel jobs, the pool runs free-standing tasks
// (Submit): idle workers drain a FIFO task queue between jobs. A
// ParallelFor never waits on the full worker complement — completion is
// tracked per job by the workers that actually joined it — so a worker
// stuck inside a long Submit task (or a task that itself calls
// ParallelFor) only shrinks the effective participant count; it can
// never deadlock the barrier. Jobs take priority over queued tasks.
//
// Instrumented as fixrep.pool.{parallel_fors,chunks_claimed,tasks,
// submitted} and the fixrep.pool.workers gauge.
class ThreadPool {
 public:
  // Starts `num_workers` parked worker threads (0 is valid).
  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  // How many ParallelFor participants a job over `items` items should
  // set up per-slot state for: `requested` (0 = the full width), capped
  // at the pool width (workers + caller) and at `items`, and at least 1.
  size_t Participants(size_t requested, size_t items) const {
    const size_t width = num_workers() + 1;
    if (requested == 0 || requested > width) requested = width;
    return std::max<size_t>(std::min(requested, items), 1);
  }

  // Process-wide pool, created on first use with
  // hardware_concurrency() - 1 workers (at least 1) and never destroyed.
  static ThreadPool& Global();

  // Runs body(begin, end, slot) over [0, n) in chunks of `grain` rows
  // claimed from an atomic cursor; blocks until every index is covered
  // exactly once. At most `max_participants` threads touch the job
  // (including the caller, which runs as slot 0); slot ids are dense in
  // [0, max_participants), so callers may pre-allocate per-slot scratch.
  // Chunk-to-slot assignment is nondeterministic — the body must make
  // per-index work independent of it.
  void ParallelFor(size_t n, size_t grain, size_t max_participants,
                   const std::function<void(size_t begin, size_t end,
                                            size_t slot)>& body);

  // Enqueues a free-standing task for any idle worker; returns
  // immediately. Tasks run in FIFO order relative to each other but
  // interleave arbitrarily with ParallelFor jobs (which take priority).
  // A zero-worker pool runs the task inline. Tasks must not throw.
  void Submit(std::function<void()> task);

 private:
  struct Job;

  void WorkerLoop();
  static void RunChunks(Job* job, size_t slot);

  std::mutex dispatch_mu_;  // serializes ParallelFor calls

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t job_seq_ = 0;            // bumped per published job
  std::shared_ptr<Job> job_;        // non-null while a job is live
  std::deque<std::function<void()>> tasks_;  // Submit queue
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace fixrep

#endif  // FIXREP_COMMON_THREAD_POOL_H_

// A small reusable worker pool for data-parallel loops over independent
// work items.
//
// PBS's structural parallelism (Section 2.1: the g groups are hashed
// independently and their per-group BCH sketches never interact) makes the
// per-round decode an embarrassingly parallel loop. A ParallelFor owns
// threads()-1 persistent worker threads (the calling thread is worker 0)
// and partitions [0, count) over them by atomic work stealing, so a pool
// created once per engine amortizes thread spawn cost over every round.
//
// Ownership rules (see docs/ARCHITECTURE.md, "Hot path & Workspace"):
//  * The *engine* (the pbs initiator or responder) owns the pool, created
//    when its config asks for more than one decode thread; kernels never
//    spawn threads themselves.
//  * Every mutable per-task state (Workspace, ParityBitmap, sketch
//    scratch, output slices) must be per-worker or per-item; the body
//    receives its worker index precisely so callers can index per-worker
//    scratch. Shared inputs (field tables, hash family, element sets)
//    must be read-only during Run().
//  * Run() is not reentrant and must always be called from the same
//    (owning) thread; the pool is otherwise content-free between calls.

#ifndef PBS_COMMON_PARALLEL_H_
#define PBS_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <memory>

namespace pbs {

/// Persistent fork-join worker pool; see the file comment.
class ParallelFor {
 public:
  /// Resolves a thread-count knob: n >= 1 means n total workers, 0 means
  /// one per hardware thread (at least 1).
  static int ResolveThreads(int requested);

  /// Creates a pool with `threads` total workers (the calling thread
  /// counts as one, so this spawns threads - 1 OS threads). `threads`
  /// is clamped to at least 1; a 1-thread pool runs bodies inline.
  explicit ParallelFor(int threads);
  ~ParallelFor();
  ParallelFor(const ParallelFor&) = delete;
  ParallelFor& operator=(const ParallelFor&) = delete;

  /// Total workers (including the calling thread).
  int threads() const { return threads_; }

  /// Runs body(index, worker) for every index in [0, count), partitioned
  /// over the pool; `worker` is in [0, threads()). Blocks until every
  /// index completed. The body must not throw and must not call Run() on
  /// the same pool.
  void Run(size_t count, const std::function<void(size_t, int)>& body);

 private:
  struct Impl;
  int threads_;
  std::unique_ptr<Impl> impl_;  // Null for the 1-thread inline pool.
};

}  // namespace pbs

#endif  // PBS_COMMON_PARALLEL_H_

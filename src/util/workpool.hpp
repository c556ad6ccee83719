// Persistent fixed-size worker pool, shared by every parallel engine in the
// repo (corpus-level parallelism in flow/batchflow, graph-level parallelism
// in sg/stategraph). The pool exists so that phase-structured algorithms —
// the CSC search runs one `for_each_index()` per round — pay thread
// creation once per pool, not once per phase.
//
// The calling thread is worker 0: a pool of size 1 spawns nothing and
// `run()` degenerates to a plain call, so sequential and parallel callers
// share one code path with zero threading overhead at size 1.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace rtcad {

class WorkPool {
 public:
  /// `threads <= 0` picks std::thread::hardware_concurrency().
  explicit WorkPool(int threads);
  ~WorkPool();
  WorkPool(const WorkPool&) = delete;
  WorkPool& operator=(const WorkPool&) = delete;

  /// Total workers, including the calling thread.
  int size() const;

  /// Run `job(worker)` once on every worker in [0, size()) — worker 0 on
  /// the calling thread — and block until all have returned. If any job
  /// throws, one of the exceptions is rethrown here after the barrier (the
  /// pool stays usable). Jobs partition their own work (typically by an
  /// atomic cursor over chunks); the pool only provides the threads.
  void run(const std::function<void(int worker)>& job);

  /// Partition the index range [0, n) across the pool: workers claim
  /// indices by atomic cursor (in index order) and `body(i)` runs exactly
  /// once per index. This is the shared work-claiming idiom of every
  /// parallel engine in the repo — batch items, CSC candidates, pending-age
  /// sweeps. Determinism is the caller's contract: write only to slot `i`
  /// and do any order-sensitive merging sequentially afterwards. Blocks
  /// until done; exceptions propagate as in run().
  void for_each_index(std::size_t n,
                      const std::function<void(std::size_t i)>& body);

  /// Effective worker count for a request: `threads` if positive, else
  /// hardware concurrency (never less than 1).
  static int effective_threads(int threads);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rtcad

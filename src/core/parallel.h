#ifndef MTIA_CORE_PARALLEL_H_
#define MTIA_CORE_PARALLEL_H_

/**
 * @file
 * Deterministic parallel execution. The one production site is the
 * host GEMM (core/simd_gemm.cc: B-panel packing and the row-block
 * sweep) under the functional executor; tests and perfbench pin its
 * lane count with ScopedParallelism.
 *
 * A fan-out earns its dispatch only with its own numbers. The
 * autotuner sweeps, the fleet Monte-Carlo studies, the A/B harness,
 * the cluster load sweep and the Figure 6 model sweep run as plain
 * loops on the calling thread: at 4 lanes their benches did not beat
 * 1 lane in 9 of 10 interleaved runs (DESIGN.md "Parallel execution
 * & determinism" has the table).
 * One parallelFor over the pool costs tens of microseconds of wall
 * time, so a loop that needs a barrier every few microseconds of
 * work runs faster on the calling thread (see sim/parallel_des.h).
 *
 * The design rule is *static sharding, index-ordered reduction*: work
 * over [0, n) is split into contiguous chunks fixed before any thread
 * runs (no work stealing), every index's task must be a pure function
 * of its index (plus read-only captures), and results are written to
 * slot i and reduced in index order. Under that rule the output is
 * byte-identical to the serial path regardless of thread count or
 * schedule — which is what lets the golden-trace and bench-report
 * determinism tests keep passing while the wall clock drops.
 *
 * Randomized tasks follow the Rng::fork discipline: the caller holds
 * one base generator and hands task i the substream base.fork(i),
 * never a shared stream whose consumption order would depend on the
 * schedule.
 *
 * Thread count: the MTIA_THREADS environment variable when set (>= 1;
 * 1 restores the exact legacy serial path, executing inline on the
 * calling thread), otherwise the hardware concurrency. Tests pin a
 * count in-process with ScopedParallelism.
 *
 * Nested parallel regions run inline and serially on the worker that
 * spawned them — no deadlocks, no surprise oversubscription, and the
 * same bytes out.
 */

#include <cstddef>
#include <functional>

namespace mtia {

/**
 * Parallelism the harness would use right now: the innermost live
 * ScopedParallelism if any, else MTIA_THREADS, else the hardware
 * concurrency. Always >= 1. Inside a parallel region this is 1 (a
 * nested region runs inline).
 */
unsigned parallelLanes();

/**
 * A fixed-size thread pool. parallelFor dispatches onto a
 * process-wide pool; tests may build private pools through
 * ScopedParallelism instead. Workers are created once in the
 * constructor and joined in the destructor — the pool never grows,
 * shrinks, or steals work.
 */
class ThreadPool
{
  public:
    /** A pool running shards on @p workers threads plus the caller. */
    explicit ThreadPool(unsigned workers);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker-thread count (lanes are workers() + 1: the caller). */
    unsigned workers() const;

    /**
     * Run @p fn(shard) for every shard in [0, shards), shard 0 on the
     * calling thread and shard s > 0 on worker s - 1, blocking until
     * all complete. Every shard runs at the caller's SIMD tier
     * (simd::activeIsa(), including a ScopedIsa override). @pre shards
     * <= workers() + 1. If any shard throws, the lowest-indexed
     * exception is rethrown on the caller.
     */
    void run(unsigned shards, const std::function<void(unsigned)> &fn);

  private:
    struct Impl;
    Impl *impl_;
};

/**
 * RAII parallelism override for tests and perfbench:
 * while alive, parallelFor on this thread uses exactly
 * @p lanes lanes (a private pool when lanes > 1, inline when 1),
 * independent of MTIA_THREADS and the hardware. Scopes nest; the
 * innermost wins.
 */
class ScopedParallelism
{
  public:
    explicit ScopedParallelism(unsigned lanes);
    ~ScopedParallelism();

    ScopedParallelism(const ScopedParallelism &) = delete;
    ScopedParallelism &operator=(const ScopedParallelism &) = delete;

  private:
    void *prev_pool_;
    unsigned prev_lanes_;
    bool prev_active_;
};

/**
 * Run @p body(i) for every i in [0, n), sharded statically over the
 * available lanes. @p body must treat distinct indices independently:
 * no shared mutable state, no order-dependent accumulation. Blocks
 * until every index has run; rethrows the lowest-indexed exception.
 */
void parallelFor(std::size_t n, const std::function<void(std::size_t)> &body);

} // namespace mtia

#endif // MTIA_CORE_PARALLEL_H_

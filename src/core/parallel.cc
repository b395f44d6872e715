#include "core/parallel.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "core/check.h"
#include "core/simd.h"

namespace mtia {

namespace {

// Set while a thread is executing a shard; a nested parallel region
// on such a thread runs inline and serially.
thread_local bool tls_in_parallel_region = false;

// Innermost ScopedParallelism on this thread (tests / perfbench).
thread_local ThreadPool *tls_override_pool = nullptr;
thread_local unsigned tls_override_lanes = 0;
thread_local bool tls_override_active = false;

unsigned
envLanes()
{
    // MTIA_THREADS >= 1 pins the lane count; unset/invalid falls back
    // to the hardware concurrency. Read once: the pool is fixed-size.
    static const unsigned lanes = [] {
        if (const char *env = std::getenv("MTIA_THREADS")) {
            const long v = std::strtol(env, nullptr, 10);
            if (v >= 1)
                return static_cast<unsigned>(v);
        }
        const unsigned hw = std::thread::hardware_concurrency();
        return hw == 0 ? 1u : hw;
    }();
    return lanes;
}

ThreadPool &
globalPool()
{
    static ThreadPool pool(envLanes() - 1);
    return pool;
}

} // namespace

struct ThreadPool::Impl
{
    std::mutex mu;
    std::condition_variable work_cv;
    std::condition_variable done_cv;
    std::vector<std::thread> threads;
    // Published job: bumping the generation releases the workers.
    const std::function<void(unsigned)> *fn = nullptr;
    // The caller's SIMD tier, which every shard of the job runs at.
    simd::SimdIsa isa = simd::SimdIsa::Scalar;
    unsigned shards = 0;
    std::uint64_t generation = 0;
    unsigned remaining = 0;
    bool stop = false;

    void
    workerLoop(unsigned worker)
    {
        std::uint64_t seen = 0;
        std::unique_lock<std::mutex> lock(mu);
        while (true) {
            work_cv.wait(lock, [&] {
                return stop || generation != seen;
            });
            if (stop)
                return;
            seen = generation;
            const unsigned my_shard = worker + 1;
            if (my_shard >= shards)
                continue; // not participating in this job
            const auto *job = fn;
            const simd::SimdIsa job_isa = isa;
            lock.unlock();
            tls_in_parallel_region = true;
            {
                const simd::ScopedIsa caller_tier(job_isa);
                (*job)(my_shard);
            }
            tls_in_parallel_region = false;
            lock.lock();
            if (--remaining == 0)
                done_cv.notify_all();
        }
    }
};

ThreadPool::ThreadPool(unsigned workers) : impl_(new Impl)
{
    impl_->threads.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        impl_->threads.emplace_back([this, w] { impl_->workerLoop(w); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(impl_->mu);
        impl_->stop = true;
    }
    impl_->work_cv.notify_all();
    for (std::thread &t : impl_->threads)
        t.join();
    delete impl_;
}

unsigned
ThreadPool::workers() const
{
    return static_cast<unsigned>(impl_->threads.size());
}

void
ThreadPool::run(unsigned shards, const std::function<void(unsigned)> &fn)
{
    MTIA_CHECK_GT(shards, 0u) << ": ThreadPool::run with no shards";
    MTIA_CHECK_LE(shards, workers() + 1)
        << ": more shards than pool lanes (static sharding only)";
    if (shards == 1) {
        fn(0);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(impl_->mu);
        impl_->fn = &fn;
        impl_->isa = simd::activeIsa();
        impl_->shards = shards;
        impl_->remaining = shards - 1;
        ++impl_->generation;
    }
    impl_->work_cv.notify_all();
    // Shard 0 runs here; a nested parallel region inside it must run
    // inline rather than re-entering the pool.
    const bool was_in_region = tls_in_parallel_region;
    tls_in_parallel_region = true;
    std::exception_ptr caller_error;
    try {
        fn(0);
    } catch (...) {
        caller_error = std::current_exception();
    }
    tls_in_parallel_region = was_in_region;
    {
        std::unique_lock<std::mutex> lock(impl_->mu);
        impl_->done_cv.wait(lock, [&] { return impl_->remaining == 0; });
    }
    if (caller_error)
        std::rethrow_exception(caller_error);
}

ScopedParallelism::ScopedParallelism(unsigned lanes)
    : prev_pool_(tls_override_pool),
      prev_lanes_(tls_override_lanes),
      prev_active_(tls_override_active)
{
    MTIA_CHECK_GT(lanes, 0u) << ": ScopedParallelism needs >= 1 lane";
    tls_override_lanes = lanes;
    tls_override_pool = lanes > 1 ? new ThreadPool(lanes - 1) : nullptr;
    tls_override_active = true;
}

ScopedParallelism::~ScopedParallelism()
{
    delete tls_override_pool;
    tls_override_pool = static_cast<ThreadPool *>(prev_pool_);
    tls_override_lanes = prev_lanes_;
    tls_override_active = prev_active_;
}

unsigned
parallelLanes()
{
    if (tls_in_parallel_region)
        return 1;
    if (tls_override_active)
        return tls_override_lanes;
    return envLanes();
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    const unsigned lanes = parallelLanes();
    const std::size_t shards =
        std::min<std::size_t>(lanes, n);
    if (shards <= 1) {
        // The exact legacy serial path: same thread, same order.
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    // Static contiguous sharding: shard s owns [s*n/S, (s+1)*n/S).
    // Exceptions surface deterministically: the lowest-indexed shard's
    // error wins regardless of which thread faulted first.
    std::vector<std::exception_ptr> errors(shards);
    const std::function<void(unsigned)> shard_body =
        [&](unsigned s) {
            const std::size_t lo = n * s / shards;
            const std::size_t hi = n * (s + 1) / shards;
            try {
                for (std::size_t i = lo; i < hi; ++i)
                    body(i);
            } catch (...) {
                errors[s] = std::current_exception();
            }
        };

    ThreadPool &pool =
        tls_override_active && tls_override_pool != nullptr
            ? *tls_override_pool
            : globalPool();
    pool.run(static_cast<unsigned>(shards), shard_body);

    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
}

} // namespace mtia

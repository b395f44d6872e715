// Tests for the deterministic parallel harness: static sharding,
// index-ordered results, exception propagation, and Rng::fork
// substream discipline. These run under the tsan preset in CI.

#include <atomic>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "core/simd.h"
#include "sim/random.h"

namespace mtia {
namespace {

TEST(ParallelTest, ParallelForVisitsEveryIndexOnce)
{
    ScopedParallelism lanes(4);
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> visits(n);
    parallelFor(n, [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ParallelTest, MapMatchesSerialAtEveryLaneCount)
{
    const std::size_t n = 113; // prime: uneven shard boundaries
    const auto run = [&] {
        std::vector<double> out(n);
        parallelFor(n, [&](std::size_t i) {
            Rng rng(static_cast<std::uint64_t>(i) + 7);
            double acc = 0.0;
            for (int k = 0; k < 32; ++k)
                acc += rng.gaussian(0.0, 1.0);
            out[i] = acc;
        });
        return out;
    };
    std::vector<double> serial;
    {
        ScopedParallelism one(1);
        serial = run();
    }
    for (unsigned lanes : {2u, 3u, 8u}) {
        ScopedParallelism scope(lanes);
        const auto parallel = run();
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(parallel[i], serial[i])
                << "lanes " << lanes << " index " << i;
    }
}

TEST(ParallelTest, EmptyAndSingleElementRanges)
{
    ScopedParallelism lanes(4);
    parallelFor(0, [](std::size_t) { FAIL() << "body ran for n=0"; });
    std::vector<std::size_t> one(1);
    parallelFor(1, [&](std::size_t i) { one[i] = i + 41; });
    EXPECT_EQ(one[0], 41u);
}

TEST(ParallelTest, MoreIndicesThanLanesAndViceVersa)
{
    ScopedParallelism lanes(8);
    // n < lanes: only n shards may run.
    std::vector<std::size_t> small(3);
    parallelFor(small.size(), [&](std::size_t i) { small[i] = i * i; });
    EXPECT_EQ(small, (std::vector<std::size_t>{0, 1, 4}));
    // n >> lanes: contiguous static shards cover everything.
    std::vector<std::size_t> big(10000);
    parallelFor(big.size(), [&](std::size_t i) { big[i] = i; });
    EXPECT_EQ(std::accumulate(big.begin(), big.end(), std::size_t{0}),
              std::size_t{10000} * 9999 / 2);
}

TEST(ParallelTest, LowestIndexedExceptionWins)
{
    ScopedParallelism lanes(4);
    const auto attempt = [&] {
        parallelFor(100, [](std::size_t i) {
            if (i == 17)
                throw std::runtime_error("boom@17");
            if (i == 83)
                throw std::runtime_error("boom@83");
        });
    };
    EXPECT_THROW(attempt(), std::runtime_error);
    try {
        attempt();
    } catch (const std::runtime_error &e) {
        // Shard owning index 17 precedes the shard owning 83, so the
        // surviving exception is deterministic.
        EXPECT_STREQ(e.what(), "boom@17");
    }
}

TEST(ParallelTest, NestedRegionsRunInline)
{
    ScopedParallelism lanes(4);
    std::vector<std::atomic<int>> visits(64);
    parallelFor(8, [&](std::size_t outer) {
        // Inside a shard the harness reports one lane and the nested
        // region must run inline on this thread.
        EXPECT_EQ(parallelLanes(), 1u);
        const auto tid = std::this_thread::get_id();
        parallelFor(8, [&](std::size_t inner) {
            EXPECT_EQ(std::this_thread::get_id(), tid);
            ++visits[outer * 8 + inner];
        });
    });
    for (std::size_t i = 0; i < visits.size(); ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ParallelTest, ScopedParallelismNestsInnermostWins)
{
    ScopedParallelism outer(8);
    EXPECT_EQ(parallelLanes(), 8u);
    {
        ScopedParallelism inner(2);
        EXPECT_EQ(parallelLanes(), 2u);
    }
    EXPECT_EQ(parallelLanes(), 8u);
}

TEST(ParallelTest, PoolRunsEachShardOnItsOwnLane)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.workers(), 3u);
    std::vector<std::thread::id> ids(4);
    pool.run(4, [&](unsigned shard) {
        ids[shard] = std::this_thread::get_id();
    });
    std::set<std::thread::id> unique(ids.begin(), ids.end());
    EXPECT_EQ(unique.size(), 4u);
    EXPECT_EQ(ids[0], std::this_thread::get_id());
}

TEST(ParallelTest, WorkersInheritCallersScopedIsa)
{
    ScopedParallelism lanes(4);
    std::vector<std::string> tier(8);
    {
        const simd::ScopedIsa forced(simd::SimdIsa::Scalar);
        parallelFor(tier.size(), [&](std::size_t i) {
            tier[i] = simd::isaName(simd::activeIsa());
        });
    }
    for (std::size_t i = 0; i < tier.size(); ++i)
        EXPECT_EQ(tier[i], "scalar") << "task " << i;
    // The override ends with the job: the next one runs at the tier
    // the caller now has.
    const std::string caller = simd::isaName(simd::activeIsa());
    parallelFor(tier.size(), [&](std::size_t i) {
        tier[i] = simd::isaName(simd::activeIsa());
    });
    for (std::size_t i = 0; i < tier.size(); ++i)
        EXPECT_EQ(tier[i], caller) << "task " << i;
}

TEST(RngForkTest, ForkIsPureAndDoesNotAdvanceParent)
{
    Rng parent(1234);
    const std::uint64_t before = Rng(1234).next();
    Rng a = parent.fork(5);
    Rng b = parent.fork(5);
    EXPECT_EQ(a.next(), b.next()); // same index, same substream
    EXPECT_EQ(parent.next(), before); // parent stream untouched
}

TEST(RngForkTest, DistinctIndicesGiveDistinctStreams)
{
    Rng parent(99);
    std::set<std::uint64_t> firsts;
    for (std::uint64_t i = 0; i < 1000; ++i)
        firsts.insert(parent.fork(i).next());
    EXPECT_EQ(firsts.size(), 1000u);
}

TEST(RngForkTest, ForkDependsOnParentState)
{
    Rng a(7);
    Rng b(8);
    EXPECT_NE(a.fork(0).next(), b.fork(0).next());
    // Advancing the parent changes what its forks see.
    Rng c(7);
    (void)c.next();
    EXPECT_NE(a.fork(0).next(), c.fork(0).next());
}

TEST(RngForkTest, SpareGaussianDoesNotLeakAcrossFork)
{
    // Box-Muller generates pairs and caches the spare. A fork taken
    // after an odd number of gaussian() calls must not inherit that
    // cached spare: the child substream is a function of the parent's
    // counter state only.
    // After one gaussian() the spare is cached; after two it has been
    // consumed. In both cases the underlying counter state is the
    // same, so the forks must be identical — any difference means the
    // spare leaked into the child.
    Rng odd(42);
    (void)odd.gaussian(0.0, 1.0); // leaves a spare cached
    Rng even(42);
    (void)even.gaussian(0.0, 1.0);
    (void)even.gaussian(0.0, 1.0); // consumes the spare
    Rng fork_odd = odd.fork(3);
    Rng fork_even = even.fork(3);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(fork_odd.gaussian(0.0, 1.0),
                  fork_even.gaussian(0.0, 1.0));

    // Interleaving parent gaussians with forked-child gaussians stays
    // reproducible: child draws never splice the parent's pair cache.
    Rng p1(5);
    Rng p2(5);
    const double g1 = p1.gaussian(0.0, 1.0);
    const double g2 = p2.gaussian(0.0, 1.0);
    EXPECT_EQ(g1, g2);
    Rng c1 = p1.fork(0);
    const double child_draw = c1.gaussian(0.0, 1.0);
    (void)child_draw;
    // The parent's next gaussian is the cached spare in both cases —
    // untouched by the child's own draws.
    EXPECT_EQ(p1.gaussian(0.0, 1.0), p2.gaussian(0.0, 1.0));
}

} // namespace
} // namespace mtia

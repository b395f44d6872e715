/**
 * @file
 * Allocation accounting. The event queue's acceptance criterion is
 * zero steady-state heap allocations: once the slab freelist and the
 * overflow vector are warm, scheduling and dispatching inline-sized
 * callbacks must never touch the allocator. The functional executor's
 * is that a last consumer takes its input by move: one run allocates
 * less than a copy-semantics run by at least those inputs' bytes. A
 * warm FC run allocates no weight-sized operand or pack buffer. The
 * host decoders reject a header that declares more output than the
 * stream can encode before allocating it.
 * This binary replaces global operator new/delete with counting
 * versions, so it is its own test executable.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "copy_executor.h"
#include "core/check.h"
#include "core/parallel.h"
#include "graph/fusion.h"
#include "host/compression.h"
#include "models/model_zoo.h"
#include "ops/dense_ops.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/types.h"

namespace {

/** Allocations this large hold tensor data, never executor
 *  bookkeeping (map nodes, index vectors, shapes). */
constexpr std::size_t kTensorSizedBytes = 512;

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_tensor_sized_bytes{0};
/** Allocations of at least g_large_threshold bytes (off by default). */
std::atomic<std::size_t> g_large_threshold{~std::size_t{0}};
std::atomic<std::uint64_t> g_large_allocations{0};

std::uint64_t
allocationCount()
{
    return g_allocations.load(std::memory_order_relaxed);
}

std::uint64_t
tensorSizedBytes()
{
    return g_tensor_sized_bytes.load(std::memory_order_relaxed);
}

void
countAllocation(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (size >= kTensorSizedBytes)
        g_tensor_sized_bytes.fetch_add(size, std::memory_order_relaxed);
    if (size >= g_large_threshold.load(std::memory_order_relaxed))
        g_large_allocations.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

// The replacements are kept out of line: inlined into a caller, GCC
// pairs a new-expression with the std::free below and warns
// (-Wmismatched-new-delete).

[[gnu::noinline]] void *
operator new(std::size_t size)
{
    countAllocation(size);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new[](std::size_t size)
{
    countAllocation(size);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace mtia {
namespace {

/** Self-rescheduling chain with a production-shaped capture. */
struct Chain
{
    EventQueue *q;
    std::uint64_t remaining;
    std::uint64_t *fired;
    Tick delta;

    void
    operator()()
    {
        ++*fired;
        if (remaining > 0)
            q->scheduleAfter(delta, Chain{q, remaining - 1, fired, delta});
    }
};
static_assert(EventQueue::Callback::storesInline<Chain>(),
              "the steady-state guarantee only holds for inline captures");

/**
 * Schedules the chains of one traffic shape: a monotone chain (every
 * event extends the sorted run), an out-of-order mix (short and long
 * deltas, so events split between the run and the heap), and two
 * interleaved monotone chains (the run never drains).
 */
void
scheduleShape(EventQueue &q, int shape, std::uint64_t length,
              std::uint64_t *fired)
{
    switch (shape) {
    case 0:
        q.schedule(q.now(), Chain{&q, length, fired, 3});
        break;
    case 1:
        q.schedule(q.now(), Chain{&q, length, fired, 3});
        q.schedule(q.now(), Chain{&q, length / 64, fired, 4096});
        q.schedule(q.now() + 1, Chain{&q, length / 8, fired, 97});
        break;
    default:
        q.schedule(q.now(), Chain{&q, length, fired, 10});
        q.schedule(q.now() + 5, Chain{&q, length, fired, 10});
        break;
    }
}

TEST(EventQueueAllocation, SteadyStateSchedulingIsAllocationFree)
{
    for (int shape = 0; shape < 3; ++shape) {
        EventQueue q;
        std::uint64_t fired = 0;

        // Warm-up: grow the node slabs, the heap and the run to the
        // shape's pending high-water mark.
        scheduleShape(q, shape, 512, &fired);
        q.run();
        const std::uint64_t warmed = fired;

        const std::uint64_t before = allocationCount();
        scheduleShape(q, shape, 50000, &fired);
        q.run();
        const std::uint64_t after = allocationCount();

        EXPECT_EQ(after - before, 0u)
            << "steady-state schedule/dispatch touched the heap (shape "
            << shape << ")";
        EXPECT_GT(fired - warmed, 50000u);
    }
}

TEST(EventQueueAllocation, BoxedCallbacksAllocateOnlyTheirBox)
{
    // Sanity-check the counter itself: an oversized capture must heap-
    // box exactly once per schedule.
    EventQueue q;
    struct Big
    {
        std::uint64_t words[9];
        std::uint64_t *out;
        void operator()() const { *out += words[8]; }
    };
    static_assert(!EventQueue::Callback::storesInline<Big>());
    std::uint64_t sum = 0;
    Big big{};
    big.words[8] = 5;
    big.out = &sum;
    q.schedule(1, big); // warm the slab
    q.run();
    const std::uint64_t before = allocationCount();
    q.schedule(2, big);
    q.run();
    EXPECT_EQ(allocationCount() - before, 1u);
    EXPECT_EQ(sum, 10u);
}

TEST(ExecutorAllocation, LastConsumersTakeInputsByMove)
{
    // The DHEN functional model: batch 192, 8 x 64K x 64 FP16 tables,
    // two DHEN layers, FC+activation fused. One lane keeps every
    // allocation on this thread and the count deterministic.
    const ScopedParallelism serial(1);
    RankingModelParams p;
    p.batch = 192;
    p.tbe.tables = 8;
    p.tbe.rows_per_table = 64 * 1024;
    p.tbe.dim = 64;
    p.dhen_layers = 2;
    ModelInfo m = buildRankingModel(p);
    fuseVerticalFcActivation(m.graph);
    // Warm-up: weights and LUTs are built lazily on the first run.
    Executor(1).run(m.graph);

    std::uint64_t before = tensorSizedBytes();
    const CopySemanticsRun ref = runWithInputCopies(m.graph, 2);
    const std::uint64_t copying = tensorSizedBytes() - before;

    before = tensorSizedBytes();
    const ExecutionResult r = Executor(2).run(m.graph);
    const std::uint64_t moving = tensorSizedBytes() - before;

    EXPECT_GT(ref.movable_input_bytes, 0u);
    ASSERT_LE(moving, copying);
    EXPECT_GE(copying - moving, ref.movable_input_bytes)
        << "copy semantics " << copying << " B, executor " << moving
        << " B";
    EXPECT_EQ(r.peak_bytes, ref.result.peak_bytes);
}

TEST(GemmAllocation, WarmFcRunAllocatesNothingWeightSizedButItsOutput)
{
    // The GEMM converts operands while packing them into per-lane
    // scratch reused across calls: once warm, an FC run (FP32
    // activations, FP16 weights, fused ReLU) allocates nothing as
    // large as its k x n fp32 weight panel except its output.
    constexpr std::int64_t kM = 192, kK = 512, kN = 128;
    const std::size_t panel_bytes = kK * kN * sizeof(float);
    for (const unsigned lanes : {1u, 2u}) {
        SCOPED_TRACE(lanes);
        const ScopedParallelism scope(lanes);
        const FullyConnectedOp fc(kM, kK, kN, DType::FP16,
                                  /*has_activation=*/true,
                                  Nonlinearity::Relu, 7);
        Rng rng(9);
        Tensor x(Shape{kM, kK}, DType::FP32);
        x.fillGaussian(rng);
        const std::vector<Tensor> inputs{x};
        OpContext ctx;
        const Tensor warm = fc.run(inputs, ctx);

        g_large_threshold.store(panel_bytes);
        const std::uint64_t before = g_large_allocations.load();
        const Tensor y = fc.run(inputs, ctx);
        const std::uint64_t large = g_large_allocations.load() - before;
        g_large_threshold.store(~std::size_t{0});

        const std::size_t output_bytes = y.raw().size();
        EXPECT_EQ(large, output_bytes >= panel_bytes ? 1u : 0u)
            << "panel " << panel_bytes << " B, output " << output_bytes
            << " B";
        EXPECT_EQ(y.raw(), warm.raw());
    }
}

TEST(ContractsHost, DecompressRejectsOversizedHeaderBeforeAllocating)
{
    // Nine-byte streams whose 4-byte header declares about 4 GiB of
    // output: both decoders must reject them from the stream length
    // alone, before allocating anything near the declared size.
    ScopedCheckThrow guard;
    const ByteBuffer lz = {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0};
    const ByteBuffer rans_v1 = {0xf0, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0};
    g_large_threshold.store(std::size_t{1} << 30);
    const std::uint64_t before = g_large_allocations.load();
    EXPECT_THROW((void)LzCodec::decompress(lz), CheckFailedError);
    EXPECT_THROW((void)RansCodec::decompress(rans_v1), CheckFailedError);
    const std::uint64_t large = g_large_allocations.load() - before;
    g_large_threshold.store(~std::size_t{0});
    EXPECT_EQ(large, 0u) << "allocations of 1 GiB or more";
}

} // namespace
} // namespace mtia

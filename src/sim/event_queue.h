#ifndef MTIA_SIM_EVENT_QUEUE_H_
#define MTIA_SIM_EVENT_QUEUE_H_

/**
 * @file
 * Discrete-event simulation core. Serving simulators, fleet rollout
 * simulators, and the job scheduler are all built on this queue.
 *
 * Design (see DESIGN.md "DES core internals"):
 *
 *  - One heap plus a sorted run. Pending events are 24-byte POD
 *    {when, seq, node} references in one of two places: an
 *    append-only sorted run, which takes every event whose tick is at
 *    or after the run's last entry, and a binary min-heap on
 *    (when, seq) for the rest. Dispatch takes the smaller of the
 *    run's front and the heap's top. Sequence numbers only grow, so
 *    appending keeps the run sorted by (when, seq) and the merged
 *    order is exactly one heap's. Pre-scheduled sorted traffic (a
 *    trace's arrivals) and monotone chains cost O(1) per event.
 *
 *  - Zero-copy dispatch. Callbacks are mtia::InlineFunction (small-
 *    buffer-optimized, move-only); dispatch runs the callback in its
 *    slot and never deep-copies a closure.
 *
 *  - Slab recycling. Callbacks live in fixed Node slots chained
 *    through a freelist; steady-state scheduling of inline-sized
 *    callbacks performs zero heap allocations.
 *
 * Events run in (when, seq) order, so same-tick events fire in FIFO
 * order of scheduling and simulations stay byte-for-byte
 * deterministic.
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/inline_function.h"
#include "sim/types.h"

namespace mtia::telemetry {
class MetricRegistry;
} // namespace mtia::telemetry

namespace mtia {

/**
 * A time-ordered queue of callbacks. Events scheduled for the same tick
 * fire in FIFO order of scheduling, which keeps simulations
 * deterministic.
 */
class EventQueue
{
  public:
    /** Move-only callable; closures owning unique_ptr state are fine. */
    using Callback = InlineFunction<void()>;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p cb at absolute time @p when (>= now). Takes the
     * callback by rvalue reference so a closure built at the call
     * site moves straight into its slab slot (one move, no copies).
     */
    void schedule(Tick when, Callback &&cb);

    /** Schedule @p cb @p delay ticks from now. */
    void scheduleAfter(Tick delay, Callback &&cb)
    {
        schedule(now_ + delay, std::move(cb));
    }

    /** Number of pending events. */
    std::size_t pending() const
    {
        return heap_.size() + (run_.size() - run_head_);
    }

    /** Events dispatched so far (telemetry). */
    std::uint64_t executed() const { return executed_; }

    /** High-water mark of pending() over the queue's lifetime. */
    std::size_t peakPending() const { return peak_pending_; }

    /** Run events until the queue drains. Returns final time. */
    Tick run();

    /**
     * Run every event with timestamp <= @p limit — the limit tick is
     * INCLUSIVE — then set now() to max(now(), limit) whether the
     * queue drained or later events remain pending. Epoch-barrier
     * callers rely on both halves of that contract: events landing
     * exactly on an epoch's last tick run inside that epoch, and
     * after the call every partition clock reads exactly the epoch
     * end, so a message scheduled at limit + 1 is never "in the
     * past" on any partition.
     */
    Tick runUntil(Tick limit);

    /**
     * Timestamp of the earliest pending event. @pre pending() > 0.
     * Used by epoch-barrier drivers to pick the next synchronization
     * window without dispatching anything.
     */
    Tick nextEventTick() const;

    /**
     * Drop all pending events (simulation teardown). One destructor
     * call per dropped callback, no ordering work; now() and
     * executed() are unchanged.
     */
    void clear();

    /** Events ever scheduled (telemetry: event_queue.scheduled). */
    std::uint64_t scheduledCount() const { return scheduled_; }

    /**
     * Scheduled callbacks stored in the InlineFunction small buffer —
     * i.e. without a heap box (telemetry: event_queue.inline_callbacks).
     */
    std::uint64_t inlineCallbackCount() const { return inline_callbacks_; }

    /**
     * Publish the queue's counters into @p metrics:
     * event_queue.{scheduled, inline_callbacks} accumulate
     * (inc-by-total, matching the sim.events_executed convention).
     */
    void publishMetrics(telemetry::MetricRegistry &metrics) const;

  private:
    /** A slab slot: the callback, or the freelist link once freed. */
    struct Node
    {
        Node *next = nullptr;
        Callback cb;
    };

    /** A pending event: POD reference, cheap to sift and append. */
    struct Ref
    {
        Tick when;
        std::uint64_t seq;
        Node *node;
    };

    /**
     * (when, seq) "later than": the max-heap comparator that makes the
     * earliest event the heap's front. A function object, so the heap
     * algorithms inline it.
     */
    struct Later
    {
        bool
        operator()(const Ref &a, const Ref &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    static constexpr std::size_t kSlabNodes = 256;

    Node *allocNode();
    void freeNode(Node *n);
    void growSlab();

    /** Append @p e to the sorted run. @pre it sorts after the back. */
    void pushRun(const Ref &e);
    /** True when the earliest pending event is the run's front. */
    bool runFront() const
    {
        return !run_.empty() &&
            (heap_.empty() || Later{}(heap_.front(), run_[run_head_]));
    }
    /** Tick of the earliest event. @pre pending() > 0. */
    Tick frontTick() const
    {
        return runFront() ? run_[run_head_].when : heap_.front().when;
    }
    /** Remove and return the earliest event. @pre pending() > 0. */
    Ref popFront();
    /** Advance now() to @p e's tick and run it in its slot. */
    void dispatch(const Ref &e);

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t peak_pending_ = 0;

    /** Events that did not extend the run: min-heap on (when, seq). */
    std::vector<Ref> heap_;
    /**
     * Sorted run: live entries are [run_head_, size), ascending in
     * (when, seq); the vector is empty exactly when the run is. The
     * dead prefix is dropped when the run drains or, before the vector
     * would grow, once it is at least half of it, so its capacity stays
     * within about twice the peak pending count.
     */
    std::vector<Ref> run_;
    std::size_t run_head_ = 0;

    /** Slab storage + freelist for Node slots. */
    std::vector<std::unique_ptr<Node[]>> slabs_;
    Node *free_ = nullptr;

    std::uint64_t scheduled_ = 0;
    std::uint64_t inline_callbacks_ = 0;
};

} // namespace mtia

#endif // MTIA_SIM_EVENT_QUEUE_H_

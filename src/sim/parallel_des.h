#ifndef MTIA_SIM_PARALLEL_DES_H_
#define MTIA_SIM_PARALLEL_DES_H_

/**
 * @file
 * Partitioned discrete-event simulation by conservative time-windowed
 * synchronization (see DESIGN.md "Parallel multi-chip DES").
 *
 * The model is partitioned: every partition owns a private EventQueue
 * and all of the simulated state its events touch. Partitions
 * interact ONLY through post(): a cross-partition message that is
 * buffered in its destination's mailbox and delivered at the next
 * epoch barrier.
 *
 * Timeline of one epoch of width W on the fixed grid B_k = k * W:
 *
 *     partition 0  |== runUntil(B_{k+1} - 1) ==|
 *     partition 1  |== runUntil(B_{k+1} - 1) ==|   barrier: drain
 *     partition 2  |== runUntil(B_{k+1} - 1) ==|   mailboxes in
 *         ...                                      (dst, src, FIFO)
 *                                                  order
 *
 * Conservative synchronization: post() requires the delivery time to
 * land strictly after the epoch being executed, which is guaranteed
 * by construction when every cross-partition latency is >= W (pick W
 * = the minimum such latency). No partition can therefore receive an
 * event in its past, and no rollback machinery is needed.
 *
 * Partitions run serially, in index order, on the calling thread.
 * Handing each epoch to the lane pool never paid for itself: a cluster
 * epoch holds about 140 events (~27 us of work) across all partitions,
 * about what one pool dispatch and barrier cost. On a 4-vCPU Xeon
 * (Release) the 64-chip chaos run measured 0.79-0.90x at 4 lanes, and
 * a one-replica run took about 60x longer at 2 lanes than at 1. The protocol stays because it is the
 * model: every controller<->replica interaction crosses the fabric
 * with a real latency, and the mailboxes keep each partition's state
 * single-writer. Its output is a pure function of the simulation —
 * each partition's epoch touches only its own state, and one mailbox
 * per destination holds its messages in (src, FIFO) order: partitions
 * run in index order, so run-time posts arrive in that order, and
 * setup-time posts are inserted in it. The barrier drains the
 * mailboxes in destination order, so destination-queue sequence
 * numbers and all (when, seq) tie-breaks follow (dst, src, FIFO).
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_queue.h"
#include "sim/types.h"

namespace mtia {

/** A partitioned DES run epoch by epoch on the calling thread. */
class ParallelDes
{
  public:
    /**
     * @p partitions private event queues, synchronized on the fixed
     * epoch grid of width @p epoch_width ticks. @pre partitions >= 1,
     * epoch_width >= 1. epoch_width must not exceed the smallest
     * cross-partition latency any post() will use.
     */
    ParallelDes(unsigned partitions, Tick epoch_width);

    ParallelDes(const ParallelDes &) = delete;
    ParallelDes &operator=(const ParallelDes &) = delete;

    unsigned partitions() const
    {
        return static_cast<unsigned>(queues_.size());
    }
    Tick epochWidth() const { return epoch_width_; }

    /** Partition @p p's private queue (setup and intra-partition use). */
    EventQueue &queue(unsigned p);
    const EventQueue &queue(unsigned p) const;

    /**
     * Send a cross-partition message: @p fn is scheduled on partition
     * @p dst's queue at absolute time @p when, delivered at the next
     * epoch barrier. During run() this must be called from an event of
     * partition @p src (checked: @p src must be the partition that is
     * running), and @p when must land strictly after the epoch end —
     * guaranteed when when >= send time + epochWidth().
     * Before run() it may be called from setup code with any src, in
     * any order; delivery is still in (src, FIFO) order.
     */
    void post(unsigned src, unsigned dst, Tick when,
              EventQueue::Callback fn);

    /**
     * Run all partitions to global quiescence (every queue drained,
     * every mailbox empty), epoch by epoch, each epoch running the
     * partitions in index order. Idle stretches are skipped: each
     * epoch is anchored at the grid window holding the globally
     * earliest pending event.
     */
    void run();

    /** Barriers executed by run() (telemetry / tests). */
    std::uint64_t epochsRun() const { return epochs_; }
    /** Cross-partition messages delivered (telemetry / tests). */
    std::uint64_t messagesDelivered() const { return delivered_; }
    /** Events dispatched, summed over every partition queue. */
    std::uint64_t executed() const;

  private:
    struct Message
    {
        unsigned src;
        Tick when;
        EventQueue::Callback fn;
    };

    /**
     * Barrier body: deliver every buffered message in (dst, src,
     * FIFO) order, then anchor the next epoch at the earliest pending
     * event. Returns false when the simulation is quiescent.
     */
    bool advanceEpoch();

    Tick epoch_width_;
    /** Last tick (inclusive) of the epoch being executed. */
    Tick epoch_end_ = 0;
    bool running_ = false;
    /** Partition whose events run() is dispatching. */
    unsigned current_ = 0;
    std::uint64_t epochs_ = 0;
    std::uint64_t delivered_ = 0;
    /** unique_ptr keeps queue addresses stable and cheaply spaced. */
    std::vector<std::unique_ptr<EventQueue>> queues_;
    /** Mailbox of partition dst, in (src, FIFO) order. */
    std::vector<std::vector<Message>> mailboxes_;
};

} // namespace mtia

#endif // MTIA_SIM_PARALLEL_DES_H_

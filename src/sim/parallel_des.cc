#include "sim/parallel_des.h"

#include <algorithm>
#include <utility>

#include "core/check.h"

namespace mtia {

ParallelDes::ParallelDes(unsigned partitions, Tick epoch_width)
    : epoch_width_(epoch_width)
{
    MTIA_CHECK_GT(partitions, 0u)
        << ": partitioned DES needs at least one partition";
    MTIA_CHECK_GT(epoch_width_, 0u)
        << ": epoch width must be at least one tick";
    queues_.reserve(partitions);
    for (unsigned p = 0; p < partitions; ++p)
        queues_.push_back(std::make_unique<EventQueue>());
    mailboxes_.resize(partitions);
}

EventQueue &
ParallelDes::queue(unsigned p)
{
    MTIA_CHECK_LT(p, queues_.size()) << ": partition index out of range";
    return *queues_[p];
}

const EventQueue &
ParallelDes::queue(unsigned p) const
{
    MTIA_CHECK_LT(p, queues_.size()) << ": partition index out of range";
    return *queues_[p];
}

void
ParallelDes::post(unsigned src, unsigned dst, Tick when,
                  EventQueue::Callback fn)
{
    MTIA_CHECK_LT(src, queues_.size()) << ": post from unknown partition";
    MTIA_CHECK_LT(dst, queues_.size()) << ": post to unknown partition";
    MTIA_CHECK(fn != nullptr) << ": post with a null callback";
    std::vector<Message> &box = mailboxes_[dst];
    if (running_) {
        // Partitions run in index order, so appending keeps the box in
        // (src, FIFO) order as long as only the running partition
        // sends.
        MTIA_CHECK_EQ(src, current_)
            << ": run-time post must name the running partition as src";
        // The conservative guarantee: a message buffered during epoch
        // k must deliver after the barrier at the epoch's end, or
        // partition dst — whose clock already passed epoch_end_ —
        // would receive an event in its past. Callers uphold it by
        // making every cross-partition latency >= epochWidth().
        MTIA_CHECK_GT(when, epoch_end_)
            << ": cross-partition message lands inside the current "
               "epoch (latency below the epoch width)";
        box.push_back(Message{src, when, std::move(fn)});
        return;
    }
    // Setup code may post from any source in any order: insert after
    // every message from a source <= src (cold path, before run()).
    const auto at = std::upper_bound(
        box.begin(), box.end(), src,
        [](unsigned s, const Message &m) { return s < m.src; });
    box.insert(at, Message{src, when, std::move(fn)});
}

bool
ParallelDes::advanceEpoch()
{
    // Barrier. Each mailbox is already in (src, FIFO) order, so
    // destination sequence numbers — and every same-tick dispatch tie
    // — follow (dst, src, FIFO).
    for (std::size_t dst = 0; dst < queues_.size(); ++dst) {
        std::vector<Message> &box = mailboxes_[dst];
        for (Message &m : box)
            queues_[dst]->schedule(m.when, std::move(m.fn));
        delivered_ += box.size();
        box.clear(); // capacity kept: steady state re-uses it
    }

    bool any = false;
    Tick earliest = 0;
    for (const auto &q : queues_) {
        if (q->pending() == 0)
            continue;
        const Tick t = q->nextEventTick();
        if (!any || t < earliest)
            earliest = t;
        any = true;
    }
    if (!any)
        return false; // mailboxes just drained, queues empty: done
    // Fixed grid B_k = k * W, anchored at the window holding the
    // earliest pending event — idle gaps are skipped in one hop, and
    // the grid (unlike an earliest+W-1 window) is identical however
    // the preceding epochs interleaved.
    epoch_end_ = (earliest / epoch_width_ + 1) * epoch_width_ - 1;
    ++epochs_;
    return true;
}

void
ParallelDes::run()
{
    MTIA_CHECK(!running_) << ": ParallelDes::run is not reentrant";
    running_ = true;
    // The first barrier delivers setup-time post()s and anchors epoch
    // 0; then every partition runs up to the epoch end, in index
    // order on this thread, and the next barrier exchanges messages.
    // runUntil leaves every partition clock exactly at epoch_end_
    // (see its contract), so delivery at epoch_end_ + 1 is always
    // schedulable.
    while (advanceEpoch())
        for (current_ = 0; current_ < queues_.size(); ++current_)
            queues_[current_]->runUntil(epoch_end_);
    running_ = false;
}

std::uint64_t
ParallelDes::executed() const
{
    std::uint64_t total = 0;
    for (const auto &q : queues_)
        total += q->executed();
    return total;
}

} // namespace mtia

#include "sim/event_queue.h"

#include <algorithm>

#include "core/check.h"
#include "telemetry/metrics.h"

namespace mtia {

void
EventQueue::schedule(Tick when, Callback &&cb)
{
    MTIA_CHECK_GE(when, now_) << ": EventQueue::schedule in the past";
    MTIA_CHECK(cb != nullptr) << ": EventQueue::schedule null callback";
    Node *n = allocNode();
    n->cb = std::move(cb);
    ++scheduled_;
    if (n->cb.storedInline())
        ++inline_callbacks_;
    const Ref e{when, nextSeq_++, n};
    // e carries the largest sequence number yet, so it sorts after the
    // run's back exactly when its tick is not earlier.
    if (run_.empty() || when >= run_.back().when) {
        pushRun(e);
    } else {
        heap_.push_back(e);
        std::push_heap(heap_.begin(), heap_.end(), Later{});
    }
    peak_pending_ = std::max(peak_pending_, pending());
}

Tick
EventQueue::run()
{
    while (pending() > 0)
        dispatch(popFront());
    return now_;
}

Tick
EventQueue::runUntil(Tick limit)
{
    while (pending() > 0 && frontTick() <= limit)
        dispatch(popFront());
    // Whether the queue drained or the earliest remaining event sits
    // past the limit, time advances to the limit itself: partitions
    // calling runUntil(epoch_end) in lockstep all agree on now()
    // afterwards, which is what makes barrier-delivered events at
    // epoch_end + 1 schedulable on every partition.
    if (now_ < limit)
        now_ = limit;
    return now_;
}

Tick
EventQueue::nextEventTick() const
{
    MTIA_CHECK_GT(pending(), 0u)
        << ": nextEventTick on an empty queue";
    return frontTick();
}

void
EventQueue::clear()
{
    for (std::size_t i = run_head_; i < run_.size(); ++i) {
        run_[i].node->cb = nullptr;
        freeNode(run_[i].node);
    }
    for (const Ref &e : heap_) {
        e.node->cb = nullptr;
        freeNode(e.node);
    }
    run_.clear();
    run_head_ = 0;
    heap_.clear();
}

void
EventQueue::publishMetrics(telemetry::MetricRegistry &metrics) const
{
    metrics.counter("event_queue.scheduled").inc(scheduled_);
    metrics.counter("event_queue.inline_callbacks").inc(inline_callbacks_);
}

EventQueue::Node *
EventQueue::allocNode()
{
    if (free_ == nullptr)
        growSlab();
    Node *n = free_;
    free_ = n->next;
    n->next = nullptr;
    return n;
}

void
EventQueue::freeNode(Node *n)
{
    // The callback has already been run and reset by the caller.
    n->next = free_;
    free_ = n;
}

void
EventQueue::growSlab()
{
    slabs_.push_back(std::make_unique<Node[]>(kSlabNodes));
    Node *slab = slabs_.back().get();
    for (std::size_t i = 0; i < kSlabNodes; ++i) {
        slab[i].next = free_;
        free_ = &slab[i];
    }
}

void
EventQueue::pushRun(const Ref &e)
{
    // Before the vector would grow, drop a dead prefix that is at
    // least half of it: the moved live entries number at most the
    // pushes since the last drop, so this is amortized O(1), and two
    // interleaved monotone chains that never drain the run still keep
    // its storage within about twice the pending count.
    if (run_.size() == run_.capacity() && 2 * run_head_ >= run_.size()) {
        run_.erase(run_.begin(),
                   run_.begin() + static_cast<std::ptrdiff_t>(run_head_));
        run_head_ = 0;
    }
    run_.push_back(e);
}

EventQueue::Ref
EventQueue::popFront()
{
    if (runFront()) {
        const Ref e = run_[run_head_];
        if (++run_head_ == run_.size()) {
            run_.clear();
            run_head_ = 0;
        }
        return e;
    }
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Ref e = heap_.back();
    heap_.pop_back();
    return e;
}

void
EventQueue::dispatch(const Ref &e)
{
    // Simulated time never moves backwards: dispatch is in (when, seq)
    // order and schedule() rejects past timestamps.
    MTIA_DCHECK_GE(e.when, now_) << ": event queue tick regression";
    now_ = e.when;
    ++executed_;
    // Zero-copy dispatch: invoke in place in the (already unlinked)
    // slab slot — no closure copy, no move. Anything the callback
    // schedules allocates other slots; this one is recycled after.
    e.node->cb();
    e.node->cb = nullptr;
    freeNode(e.node);
}

} // namespace mtia

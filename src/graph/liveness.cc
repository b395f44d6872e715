#include "graph/liveness.h"

#include <algorithm>
#include <set>

#include "core/check.h"

namespace mtia {

namespace {

/** Vector slot of node @p id: ids are dense indices into the graph. */
std::size_t
slot(int id)
{
    return static_cast<std::size_t>(id);
}

} // namespace

Bytes
activationBytes(const Graph &g, int node_id)
{
    return static_cast<Bytes>(g.shapeOf(node_id).numel()) * 2; // FP16
}

LivenessReport
analyzeLiveness(const Graph &g, const std::vector<int> &order)
{
    LivenessReport rep;
    rep.order = order;

    // Per id: the step of its last occurrence in the order, then the
    // last step that reads it, which is at least its own step.
    const std::size_t n = g.size();
    std::vector<std::size_t> position(n, 0);
    for (std::size_t i = 0; i < order.size(); ++i)
        position[slot(g.node(order[i]).id)] = i;
    std::vector<std::size_t> last_use(n, 0);
    for (int id : order) {
        const std::size_t at = position[slot(id)];
        last_use[slot(id)] = std::max(last_use[slot(id)], at);
        for (int in : g.node(id).inputs) {
            if (slot(in) < n)
                last_use[slot(in)] = std::max(last_use[slot(in)], at);
        }
    }

    // Bytes freed after each step: every scheduled tensor once, at
    // the step its last consumer runs (its own step if nobody reads it).
    std::vector<Bytes> freed(order.size(), 0);
    for (std::size_t i = 0; i < order.size(); ++i) {
        if (position[slot(order[i])] == i)
            freed[last_use[slot(order[i])]] += activationBytes(g, order[i]);
    }

    Bytes live = 0;
    rep.profile.reserve(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        live += activationBytes(g, order[i]);
        // The output exists at least transiently even if unread.
        rep.peak_bytes = std::max(rep.peak_bytes, live);
        live -= freed[i];
        rep.profile.push_back(live);
    }
    return rep;
}

std::vector<int>
naiveOrder(const Graph &g)
{
    return g.topoOrder();
}

std::vector<int>
memoryAwareOrder(const Graph &g)
{
    const std::size_t n = g.size();
    const std::vector<int> all = g.topoOrder();
    std::vector<Bytes> bytes(n, 0);
    std::vector<std::vector<int>> readers(n); // one entry per input edge
    std::vector<std::size_t> uses_left(n, 0); // distinct live consumers
    std::vector<std::size_t> unscheduled_inputs(n, 0);
    std::set<int> ready;
    for (int id : all) {
        const std::vector<int> &ins = g.node(id).inputs;
        bytes[slot(id)] = activationBytes(g, id);
        unscheduled_inputs[slot(id)] = ins.size();
        for (auto it = ins.begin(); it != ins.end(); ++it) {
            if (slot(*it) >= n)
                continue; // never scheduled: id never becomes ready
            readers[slot(*it)].push_back(id);
            if (std::find(ins.begin(), it, *it) == it)
                ++uses_left[slot(*it)];
        }
        if (ins.empty())
            ready.insert(id);
    }

    std::vector<int> order;
    order.reserve(all.size());
    while (order.size() < all.size()) {
        int best = -1;
        std::int64_t best_delta = 0;
        for (int id : ready) {
            // Delta live bytes if we schedule id now: its output goes
            // live unless nobody reads it; any input whose final use
            // this is goes free. uses_left drops once per input edge,
            // so a node reading one tensor twice overshoots it.
            std::int64_t delta = readers[slot(id)].empty()
                ? 0
                : static_cast<std::int64_t>(bytes[slot(id)]);
            for (int in : g.node(id).inputs) {
                if (uses_left[slot(in)] == 1)
                    delta -= static_cast<std::int64_t>(bytes[slot(in)]);
            }
            if (best < 0 || delta < best_delta ||
                (delta == best_delta && id < best)) {
                best = id;
                best_delta = delta;
            }
        }
        MTIA_CHECK_GE(best, 0)
            << ": memoryAwareOrder found no ready node (cycle?)";
        order.push_back(best);
        ready.erase(best);
        for (int in : g.node(best).inputs)
            --uses_left[slot(in)];
        for (int r : readers[slot(best)]) {
            if (--unscheduled_inputs[slot(r)] == 0)
                ready.insert(r);
        }
    }
    return order;
}

} // namespace mtia

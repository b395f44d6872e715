#ifndef MTIA_TESTS_QUADRATIC_LIVENESS_H_
#define MTIA_TESTS_QUADRATIC_LIVENESS_H_

/**
 * @file
 * Reference scheduler and liveness sweep: the direct quadratic
 * formulations of memoryAwareOrder and analyzeLiveness (a full ready
 * scan calling Graph::consumers per candidate, and a full rescan of
 * the order at every step). The production versions in
 * graph/liveness.cc must return exactly what these return, quirks
 * included: uses_left starts at the number of distinct live consumers
 * but drops once per input edge, and a node's own visit overwrites
 * its last use.
 */

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "core/check.h"
#include "graph/liveness.h"

namespace mtia::reference {

inline LivenessReport
analyzeLiveness(const Graph &g, const std::vector<int> &order)
{
    LivenessReport rep;
    rep.order = order;

    std::map<int, std::size_t> position;
    for (std::size_t i = 0; i < order.size(); ++i)
        position[order[i]] = i;
    std::map<int, std::size_t> last_use;
    for (int id : order) {
        last_use[id] = position[id];
        for (int in : g.node(id).inputs)
            last_use[in] = std::max(last_use[in], position[id]);
    }

    Bytes live = 0;
    rep.profile.reserve(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        const int id = order[i];
        live += activationBytes(g, id);
        rep.peak_bytes = std::max(rep.peak_bytes, live);
        for (int candidate : order) {
            auto it = last_use.find(candidate);
            if (it != last_use.end() && it->second == i &&
                position[candidate] <= i) {
                live -= activationBytes(g, candidate);
                last_use.erase(it);
            }
        }
        rep.profile.push_back(live);
    }
    return rep;
}

inline std::vector<int>
memoryAwareOrder(const Graph &g)
{
    const std::vector<int> all = g.topoOrder();
    std::set<int> remaining(all.begin(), all.end());
    std::map<int, std::size_t> uses_left;
    for (int id : all)
        uses_left[id] = g.consumers(id).size();

    std::set<int> scheduled;
    std::vector<int> order;
    order.reserve(all.size());

    auto ready = [&](int id) {
        for (int in : g.node(id).inputs) {
            if (!scheduled.count(in))
                return false;
        }
        return true;
    };

    while (!remaining.empty()) {
        int best = -1;
        std::int64_t best_delta = 0;
        for (int id : remaining) {
            if (!ready(id))
                continue;
            std::int64_t delta =
                static_cast<std::int64_t>(activationBytes(g, id));
            if (g.consumers(id).empty())
                delta = 0;
            for (int in : g.node(id).inputs) {
                if (uses_left[in] == 1) {
                    delta -= static_cast<std::int64_t>(
                        activationBytes(g, in));
                }
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
        scheduled.insert(best);
        remaining.erase(best);
        for (int in : g.node(best).inputs)
            --uses_left[in];
    }
    return order;
}

} // namespace mtia::reference

#endif // MTIA_TESTS_QUADRATIC_LIVENESS_H_

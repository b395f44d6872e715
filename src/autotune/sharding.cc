#include "autotune/sharding.h"

#include "core/check.h"

namespace mtia {

unsigned
ShardingPlanner::shardsNeeded(Bytes embedding_bytes,
                              Bytes runtime_bytes) const
{
    const Bytes capacity = chip_.lpddr.capacity;
    MTIA_CHECK_LT(runtime_bytes, capacity)
        << ": ShardingPlanner: runtime buffers alone exceed device DRAM";
    const Bytes usable = capacity - runtime_bytes;
    return static_cast<unsigned>((embedding_bytes + usable - 1) /
                                 usable);
}

ShardingPlan
ShardingPlanner::plan(Bytes embedding_bytes, Bytes runtime_bytes,
                      const std::vector<bool> &occupied) const
{
    ShardingPlan out;
    out.shards =
        std::max(1u, shardsNeeded(embedding_bytes, runtime_bytes));
    out.bytes_per_shard = embedding_bytes / out.shards + runtime_bytes;

    MTIA_CHECK_GE(occupied.size(), topo_.totalChips())
        << ": ShardingPlanner occupancy bitmap too small";

    // NUMA-aware: find a socket with enough free chips, preferring
    // chips that share modules (minimizes PCIe-switch hops for P2P).
    for (unsigned socket = 0; socket < topo_.sockets; ++socket) {
        std::vector<unsigned> free_chips;
        for (unsigned chip = 0; chip < topo_.totalChips(); ++chip) {
            if (topo_.socketOf(chip) == socket && !occupied[chip])
                free_chips.push_back(chip);
        }
        if (free_chips.size() >= out.shards) {
            out.chips.assign(free_chips.begin(),
                             free_chips.begin() + out.shards);
            return out;
        }
    }
    out.chips.clear(); // no socket can host the sharded model
    return out;
}

} // namespace mtia

#include "cluster/routing.h"

#include <algorithm>

#include "core/check.h"

namespace mtia {

namespace {

/** splitmix64 finalizer: the repo's standard cheap mixing function. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Domain separation between shard keys and vnode positions: without
 * it, mix64(shard) equals the replica-0 vnode hash mix64((0 << 32) |
 * v) whenever shard == v, and every small shard id lands exactly on a
 * replica-0 vnode. The salt's high bit keeps the key preimage space
 * disjoint from the (replica << 32) | vnode preimage space.
 */
constexpr std::uint64_t kShardKeySalt = 0xf00d5eedcafef00dull;

} // namespace

unsigned
LeastLoadedPolicy::route(const ClusterRequest &req,
                         const std::vector<ReplicaLoadView> &view)
{
    (void)req;
    MTIA_CHECK(!view.empty()) << ": routing over an empty cluster";
    unsigned best = static_cast<unsigned>(view.size());
    for (unsigned r = 0; r < view.size(); ++r) {
        if (!view[r].routable)
            continue;
        // Strict < keeps ties on the lowest index: deterministic.
        if (best == view.size() ||
            view[r].outstanding_rows < view[best].outstanding_rows)
            best = r;
    }
    MTIA_CHECK_LT(best, view.size())
        << ": no routable replica (caller must drop instead)";
    return best;
}

ShardHashPolicy::ShardHashPolicy(unsigned replicas, unsigned vnodes)
{
    MTIA_CHECK_GT(replicas, 0u) << ": hash ring needs replicas";
    MTIA_CHECK_GT(vnodes, 0u) << ": hash ring needs virtual nodes";
    ring_.reserve(static_cast<std::size_t>(replicas) * vnodes);
    for (unsigned r = 0; r < replicas; ++r)
        for (unsigned v = 0; v < vnodes; ++v)
            ring_.push_back(
                {mix64((static_cast<std::uint64_t>(r) << 32) | v), r});
    std::sort(ring_.begin(), ring_.end(),
              [](const VNode &a, const VNode &b) {
                  if (a.hash != b.hash)
                      return a.hash < b.hash;
                  return a.replica < b.replica;
              });
}

unsigned
ShardHashPolicy::route(const ClusterRequest &req,
                       const std::vector<ReplicaLoadView> &view)
{
    MTIA_CHECK(!view.empty()) << ": routing over an empty cluster";
    const std::uint64_t key = mix64(kShardKeySalt ^ req.home_shard);
    // First vnode at or clockwise of the key...
    std::size_t pos = static_cast<std::size_t>(
        std::lower_bound(ring_.begin(), ring_.end(), key,
                         [](const VNode &v, std::uint64_t k) {
                             return v.hash < k;
                         }) -
        ring_.begin());
    // A key hashing past the last vnode wraps to the ring's first
    // vnode — lower_bound returning end() (pos == ring_.size()) is
    // the normal clockwise wrap, not a miss.
    if (pos == ring_.size())
        pos = 0;
    // ...then walk the ring until the owner is routable, so a dead
    // replica only sheds the keys that hashed to it. The walk visits
    // every vnode exactly once (explicit wrap, bounded by the ring
    // size), so with all-but-one replicas Down it always reaches the
    // survivor's vnodes — including the first vnode of the ring when
    // the walk started past it.
    for (std::size_t step = 0; step < ring_.size(); ++step) {
        const VNode &v = ring_[pos];
        if (++pos == ring_.size())
            pos = 0;
        MTIA_DCHECK_LT(v.replica, view.size())
            << ": ring built for a different cluster size";
        if (view[v.replica].routable)
            return v.replica;
    }
    MTIA_CHECK(false)
        << ": no routable replica (caller must drop instead)";
    return 0;
}

const char *
routingPolicyKindName(RoutingPolicyKind kind)
{
    switch (kind) {
    case RoutingPolicyKind::LeastLoaded:
        return "least_loaded";
    case RoutingPolicyKind::ShardHash:
        return "shard_hash";
    }
    MTIA_UNREACHABLE("unknown RoutingPolicyKind");
}

std::unique_ptr<RoutingPolicy>
makeRoutingPolicy(RoutingPolicyKind kind, unsigned replicas)
{
    switch (kind) {
    case RoutingPolicyKind::LeastLoaded:
        return std::make_unique<LeastLoadedPolicy>();
    case RoutingPolicyKind::ShardHash:
        return std::make_unique<ShardHashPolicy>(replicas);
    }
    MTIA_UNREACHABLE("unknown RoutingPolicyKind");
}

} // namespace mtia

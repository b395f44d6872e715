/**
 * @file
 * Tests for the NoC substrate: packet overhead, broadcast-read
 * amplification, and wait-for-graph deadlock detection (randomized
 * against a brute-force cycle oracle).
 */

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>

#include "noc/deadlock.h"
#include "noc/noc.h"
#include "sim/random.h"

namespace mtia {
namespace {

TEST(Noc, TransferChargesOneHeaderPerPacket)
{
    // 256-byte packets, 16-byte header each: 0 + 1 + 1 + 2 + 4 packets.
    NocModel noc(NocConfig{});
    Bytes payload = 0;
    for (Bytes bytes : {0u, 1u, 256u, 257u, 1024u}) {
        noc.transferTime(bytes);
        payload += bytes;
    }
    EXPECT_EQ(noc.stats().payload_bytes, payload);
    EXPECT_EQ(noc.stats().wire_bytes, payload + 8 * 16u);
}

TEST(Noc, BroadcastEliminatesRedundantTraffic)
{
    NocConfig cfg;
    cfg.broadcast_reads = true;
    NocModel with(cfg);
    cfg.broadcast_reads = false;
    NocModel without(cfg);

    const Bytes tile = 1_MiB;
    const Tick t_with = with.broadcastReadTime(tile, 8);
    const Tick t_without = without.broadcastReadTime(tile, 8);
    EXPECT_GT(t_without, 7 * t_with);
    EXPECT_EQ(with.stats().redundant_bytes, 0u);
    EXPECT_GT(without.stats().redundant_bytes, 7 * tile);
}

TEST(Noc, DramEdgeEfficiencyMatchesPaperRegimes)
{
    NocModel noc(NocConfig{});
    // Coordinated broadcast loading exceeds 95% of DRAM bandwidth.
    EXPECT_GT(noc.dramEdgeEfficiency(8, true), 0.95);
    // Uncoordinated per-column reads land near half the peak.
    const double uncoord = noc.dramEdgeEfficiency(8, false);
    EXPECT_GT(uncoord, 0.4);
    EXPECT_LT(uncoord, 0.6);
}

TEST(Deadlock, NoCycleOnChain)
{
    WaitForGraph g;
    g.addWait("a", "b");
    g.addWait("b", "c");
    g.addWait("c", "d");
    EXPECT_FALSE(g.hasDeadlock());
}

TEST(Deadlock, DetectsSimpleCycle)
{
    WaitForGraph g;
    g.addWait("a", "b");
    g.addWait("b", "a");
    EXPECT_TRUE(g.hasDeadlock());
    const auto cycle = g.findCycle();
    ASSERT_EQ(cycle.size(), 2u);
    EXPECT_EQ(cycle[0], "a");
}

TEST(Deadlock, TheProductionIncidentCycle)
{
    // Section 5.5: Control Core waits on a host read; the host read
    // is ordered behind earlier PCIe transactions; those are
    // back-pressured by the NoC serialization point; the NoC waits on
    // the Control Core. Removing the Control Core's host access (the
    // firmware mitigation) breaks the cycle.
    WaitForGraph g;
    g.addWait("control-core", "pcie-read-response");
    g.addWait("pcie-read-response", "pcie-earlier-txns");
    g.addWait("pcie-earlier-txns", "noc-serialization");
    g.addWait("noc-serialization", "control-core");
    EXPECT_TRUE(g.hasDeadlock());
    const auto cycle = g.findCycle();
    EXPECT_EQ(cycle.size(), 4u);

    g.removeWait("control-core", "pcie-read-response");
    EXPECT_FALSE(g.hasDeadlock());
}

TEST(Deadlock, RandomGraphsAgreeWithOracle)
{
    // Property: detector output equals a brute-force reachability
    // oracle on random digraphs.
    Rng rng(19);
    for (int trial = 0; trial < 200; ++trial) {
        const int n = 2 + static_cast<int>(rng.below(8));
        WaitForGraph g;
        std::set<std::pair<int, int>> edges;
        const int m = static_cast<int>(rng.below(12));
        for (int e = 0; e < m; ++e) {
            const int a = static_cast<int>(rng.below(n));
            const int b = static_cast<int>(rng.below(n));
            if (a == b)
                continue;
            edges.insert({a, b});
            g.addWait("n" + std::to_string(a), "n" + std::to_string(b));
        }
        // Oracle: DFS from each node looking for a path back to it.
        bool oracle = false;
        for (int start = 0; start < n && !oracle; ++start) {
            std::set<int> seen;
            std::function<bool(int)> dfs = [&](int u) {
                for (const auto &[a, b] : edges) {
                    if (a != u)
                        continue;
                    if (b == start)
                        return true;
                    if (seen.insert(b).second && dfs(b))
                        return true;
                }
                return false;
            };
            oracle = dfs(start);
        }
        EXPECT_EQ(g.hasDeadlock(), oracle) << "trial " << trial;
    }
}

} // namespace
} // namespace mtia

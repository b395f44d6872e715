#ifndef MTIA_BENCH_TBE_SERVING_H_
#define MTIA_BENCH_TBE_SERVING_H_

/**
 * @file
 * The Figure 5 serving scenario, shared by fig5_tbe_consolidation and
 * the TBE-consolidation stage of fig4_case_study so both report the
 * same measured gain: one replica with one chip holding the model's
 * one embedding shard, every request its own batch, 6 ms of TBE
 * (gather) and 12 ms of merge per request with a 2 ms host dispatch
 * gap between jobs, and a 100 ms P99 SLO.
 */

#include "cluster/cluster_sim.h"

namespace mtia::bench {

/** Simulated length of every Figure 5 run. */
inline constexpr Tick kTbeRunDuration = fromSeconds(60.0);
/** Offered-load bracket of the QPS-at-SLO bisection. */
inline constexpr double kTbeQpsLo = 5.0;
inline constexpr double kTbeQpsHi = 90.0;

/**
 * The scenario with the TBE gather as @p gather_jobs jobs: 2 when the
 * weighted and unweighted TBE instances are split, 1 consolidated.
 */
inline ClusterConfig
tbeServingConfig(unsigned gather_jobs)
{
    ClusterConfig cfg;
    cfg.replicas = 1;
    cfg.chips_per_replica = 1;
    cfg.embedding_shards = 1;
    cfg.batcher.capacity = 1;
    cfg.batcher.slo = fromMillis(100.0);
    cfg.service.gather_base = fromMillis(6.0);
    cfg.service.gather_per_row = 0;
    cfg.service.gather_jobs = gather_jobs;
    cfg.service.merge_base = fromMillis(12.0);
    cfg.service.merge_per_row = 0;
    cfg.service.dispatch_gap = fromMillis(2.0);
    cfg.trace.users = 1000;
    return cfg;
}

} // namespace mtia::bench

#endif // MTIA_BENCH_TBE_SERVING_H_

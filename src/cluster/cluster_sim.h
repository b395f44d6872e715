#ifndef MTIA_CLUSTER_CLUSTER_SIM_H_
#define MTIA_CLUSTER_CLUSTER_SIM_H_

/**
 * @file
 * The serving simulator: N server replicas x M chips per replica on
 * one DES clock. Requests from a replayable million-user trace are
 * routed by a ClusterController (least-loaded or consistent-hash
 * policy), batched per replica by the deadline-aware DynamicBatcher,
 * and executed as gather jobs on the chips holding each embedding
 * shard followed by one merge job on FIFO chips with a host dispatch
 * gap between jobs (the remote/merge structure of Sections 3.4 and 6).
 * A one-replica, one-chip config is the Figure 5 TBE-consolidation
 * experiment: split weighted/unweighted TBE is two gather jobs per
 * chip, consolidated is one, with the same total gather time. Replica
 * health is heartbeat-tracked; failover (detect -> drain -> re-route
 * -> restart -> warm-up) and chaos mode (replica kills + ECC storms
 * from the Section 5.1 campaigns) exercise the paper's
 * productionization story.
 *
 * Partitions: the simulation is split by chip owner — partition 0 is
 * the controller/host plane (trace admission, routing, health sweeps,
 * failover orchestration) and partition 1 + r is replica r (batcher,
 * chips, in-flight batches, local counters). Each partition owns an
 * EventQueue, and partitions talk ONLY through
 * sim/parallel_des.h mailboxes: every controller<->replica message
 * (admission, heartbeat ack, death/completion notice, drain
 * command/response, restart, warm-up completion) rides the modeled
 * host/network boundary with latency ClusterFabric::latency(), which
 * is also the epoch width. The partitions run serially on the calling
 * thread (see parallel_des.h for why); the partitioning stays because
 * it models the fabric between the control plane and the replicas.
 *
 * Determinism: one seeded Rng per run (trace and chaos take fork
 * substreams), pre-generated chaos timelines, and the ParallelDes
 * index-ordered mailbox drain make every run byte-identical for a
 * seed. sweep() runs its load points in order on the calling thread,
 * each from its own fork substream.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/chaos.h"
#include "cluster/cluster_trace.h"
#include "cluster/controller.h"
#include "cluster/dynamic_batcher.h"
#include "cluster/routing.h"
#include "host/pcie.h"
#include "sim/types.h"

namespace mtia::telemetry {
class Telemetry;
} // namespace mtia::telemetry

namespace mtia {

/** Chip-level service model for one batch. */
struct ClusterServiceModel
{
    /** Per-row embedding gather time on the owning chip. */
    Tick gather_per_row = fromMicros(2.0);
    /** Fixed gather launch cost per (chip, batch) with any rows. */
    Tick gather_base = fromMicros(200.0);
    /** FIFO jobs each chip's gather is split into, evenly; the total
     * gather time does not depend on it (the Figure 5 invariant).
     * Split weighted/unweighted TBE instances are 2, consolidated 1. */
    unsigned gather_jobs = 1;
    /** Fixed merge (dense interaction) cost per batch. */
    Tick merge_base = fromMillis(1.0);
    /** Per-row merge cost. */
    Tick merge_per_row = fromMicros(2.0);
    /** Host-side scheduling gap between jobs on one chip. */
    Tick dispatch_gap = fromMicros(100.0);
    /** Chip-time cost of one NaN-consequence ECC retry. */
    Tick retry_penalty = fromMillis(1.0);
};

/**
 * The controller<->replica boundary: every cross-partition message
 * (request admission, heartbeat ack, drain traffic, restart commands)
 * crosses the host PCIe link plus a switched network hop. latency()
 * is the one-way cost — and, being the minimum cross-partition
 * latency, the epoch width of the partitioned DES: larger switch
 * latency = wider epochs = fewer barriers, at the price of coarser
 * control-plane reactivity.
 */
struct ClusterFabric
{
    /** Host-side ingress/egress link (src/host boundary model). */
    PcieConfig pcie;
    /** Marshalled size of one control/request message on that link. */
    Bytes message_bytes = 32 * 1024;
    /** Network hop beyond the host link (ToR switch + host stack). */
    Tick switch_latency = fromMillis(2.0);

    /** One-way controller<->replica latency; also the epoch width. */
    Tick latency() const
    {
        return switch_latency + PcieLink(pcie).transferTime(message_bytes);
    }
};

/** Full cluster scenario. */
struct ClusterConfig
{
    unsigned replicas = 4;
    unsigned chips_per_replica = 2;
    unsigned embedding_shards = 8;
    RoutingPolicyKind routing = RoutingPolicyKind::LeastLoaded;
    /** Cross-partition boundary model (also the DES epoch width). */
    ClusterFabric fabric;
    /** Batch close policy; batcher.slo is THE request SLO. The
     * service estimate fields are derived from `service` at run time
     * so slack tracking and execution always agree. */
    BatcherConfig batcher;
    ClusterServiceModel service;
    HealthConfig health;
    ChaosParams chaos;
    /** User population / sharding of the generated trace. The
     * traffic qps and duration fields are overridden per run. */
    ClusterTraceParams trace;
};

/** Result of simulating one offered load. */
struct ClusterResult
{
    std::string policy;
    double offered_qps = 0;
    double completed_qps = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t completed = 0;
    std::uint64_t completed_in_slo = 0;
    std::uint64_t rerouted = 0; ///< requests re-routed by failovers
    std::uint64_t dropped = 0;  ///< no routable replica at arrival
    double p50_ms = 0;
    double p99_ms = 0;
    /** Fraction of ALL arrivals that completed within the SLO. */
    double slo_attainment = 0;
    /** Candidate rows gathered per embedding shard (cluster-wide). */
    std::vector<std::int64_t> shard_rows;
    double shard_skew = 0; ///< max/mean of shard_rows
    std::uint64_t batches = 0;
    std::uint64_t batches_full = 0;
    std::uint64_t batches_deadline = 0;
    std::uint64_t batches_window = 0;
    unsigned kills = 0;     ///< chaos kills + ECC crash-equivalents
    unsigned failovers = 0; ///< failovers detected by the controller
    double mean_detection_ms = 0; ///< death -> declared Down
    double mean_recovery_ms = 0;  ///< death -> Healthy again
    double max_recovery_ms = 0;
    std::uint64_t ecc_errors = 0;
    std::uint64_t ecc_benign = 0;
    std::uint64_t ecc_corrupted = 0;
    std::uint64_t ecc_retries = 0;
    std::uint64_t ecc_crashes = 0;

    /**
     * Deterministic multi-line rendering of every field (fixed-point
     * formatting, no pointers, no wall clock): the byte-identity
     * currency of the determinism tests and the bench report.
     */
    std::string summary() const;
};

/** The cluster serving simulator. */
class ClusterSimulator
{
  public:
    /**
     * @pre at least one replica, chip, shard and gather job; a positive
     * batcher capacity and window; an SLO above the unloaded
     * gather_base + merge_base; a fabric latency under the heartbeat
     * interval and a restart delay above a drain round trip.
     */
    explicit ClusterSimulator(ClusterConfig cfg);

    /** Simulate the cluster at offered load @p qps for @p duration. */
    ClusterResult simulate(double qps, Tick duration,
                           std::uint64_t seed = 99) const;

    /**
     * Simulate several offered loads in order on the calling thread:
     * point i is simulate(qps[i], duration, Rng(seed).fork(i).next()).
     * Records into the attached telemetry like simulate() does, so the
     * registry accumulates over every point.
     */
    std::vector<ClusterResult> sweep(const std::vector<double> &qps,
                                     Tick duration,
                                     std::uint64_t seed = 99) const;

    /**
     * Largest offered load in [@p lo, @p hi] whose P99 stays within
     * batcher.slo: 18 bisection steps over simulate() at @p seed; 0 if
     * even @p lo misses the SLO.
     */
    double maxQpsAtSlo(double lo, double hi, Tick duration,
                       std::uint64_t seed = 99) const;

    const ClusterConfig &config() const { return cfg_; }

    /**
     * Attach an observability context (may be null to detach). While
     * attached, simulate() records request/ECC counters, failover
     * gauges and cluster.latency_ms histograms into the metric
     * registry: class=total (arrival -> merge end), class=remote
     * (arrival -> last gather done) and class=merge (last gather ->
     * merge end), over completed requests. The registry series
     * accumulate across simulate() calls; per-call results always come
     * from per-call scoped histograms, and attaching never changes
     * them.
     */
    void setTelemetry(telemetry::Telemetry *telemetry)
    {
        telemetry_ = telemetry;
    }

  private:
    ClusterConfig cfg_;
    telemetry::Telemetry *telemetry_ = nullptr;
};

} // namespace mtia

#endif // MTIA_CLUSTER_CLUSTER_SIM_H_

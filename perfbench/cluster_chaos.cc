/**
 * @file
 * cluster_chaos: one op is one ClusterSimulator::simulate of the
 * bench/parallel_cluster scenario (32 replicas x 2 chips, 16 shards,
 * 1M-user Zipf-1.1 trace, chaos kills every 1 s and ECC storms every
 * 0.5 s) at 12k QPS for 2 simulated seconds, on op i's seed
 * substream. The sim (EventQueue, ParallelDes) and cluster
 * (controller, batcher, routing, chaos, failover) layers do nearly
 * all the work; GEMM and the codecs do none.
 */

#include <cmath>

#include "cluster/chaos.h"
#include "cluster/cluster_sim.h"
#include "cluster/cluster_trace.h"
#include "harness.h"
#include "sim/random.h"
#include "telemetry/telemetry.h"

namespace mtia::perfbench {
namespace {

constexpr double kQps = 12000.0;
const Tick kDuration = fromSeconds(2.0);

ClusterConfig
chaosConfig()
{
    ClusterConfig cfg;
    cfg.replicas = 32;
    cfg.chips_per_replica = 2;
    cfg.embedding_shards = 16;
    cfg.routing = RoutingPolicyKind::LeastLoaded;
    cfg.trace.users = 1'000'000;
    cfg.trace.user_zipf_alpha = 1.1;
    cfg.trace.traffic.candidates_mean = 64;
    cfg.chaos.enabled = true;
    cfg.chaos.mean_kill_interval_s = 1.0;
    cfg.chaos.mean_storm_interval_s = 0.5;
    return cfg;
}

bool
consistent(const ClusterResult &r)
{
    return r.completed + r.dropped <= r.arrivals &&
        r.completed_in_slo <= r.completed && r.slo_attainment >= 0.0 &&
        r.slo_attainment <= 1.0 && std::isfinite(r.p99_ms);
}

class ClusterChaos final : public Workload
{
  public:
    ClusterChaos() : sim_(chaosConfig()) {}

    bool
    setup(std::uint64_t seed) override
    {
        seed_ = seed;
        // Warm-up: one op on a substream no timed op uses.
        return consistent(sim_.simulate(kQps, kDuration, ~seed));
    }

    OpOutcome
    op(std::uint64_t i, SpanRecorder *spans) override
    {
        const std::uint64_t s = opSeed(seed_, i);
        auto &m = tel_.metrics;
        const std::uint64_t events0 = m.counter("sim.events_executed").value();
        const std::uint64_t epochs0 = m.counter("cluster.des_epochs").value();
        const std::uint64_t msgs0 = m.counter("cluster.des_messages").value();

        sim_.setTelemetry(spans != nullptr ? &tel_ : nullptr);
        ClusterResult r;
        {
            const ScopedSpan span(spans, "cluster.simulate", i);
            r = sim_.simulate(kQps, kDuration, s);
        }
        sim_.setTelemetry(nullptr);
        if (spans == nullptr)
            return outcome(r);
        events_ += m.counter("sim.events_executed").value() - events0;

        // The two inputs simulate() derives from its seed, rebuilt
        // from outside exactly as the simulator does (fork 0 = trace,
        // fork 1 = chaos timeline).
        const ClusterConfig &cfg = sim_.config();
        const Rng base(s);
        {
            const ScopedSpan span(spans, "cluster.trace_gen", i);
            ClusterTraceParams tp = cfg.trace;
            tp.traffic.qps = kQps;
            tp.traffic.duration = kDuration;
            tp.embedding_shards = cfg.embedding_shards;
            Rng trace_rng = base.fork(0);
            generateClusterTrace(trace_rng, tp);
        }
        {
            const ScopedSpan span(spans, "cluster.chaos_timeline", i);
            buildChaosTimeline(cfg.chaos, cfg.replicas, kDuration,
                               base.fork(1));
        }

        if (i < kFixedTraceOps) {
            epochs_ += m.counter("cluster.des_epochs").value() - epochs0;
            messages_ += m.counter("cluster.des_messages").value() - msgs0;
            fixed_events_ += m.counter("sim.events_executed").value() -
                events0;
            fixed_.push_back(r);
        }
        return outcome(r);
    }

    std::vector<std::string>
    mainSpans() const override
    {
        return {"cluster.simulate"};
    }

    void
    layerMetrics(const SpanRecorder &spans, Metrics &out) const override
    {
        double arrivals = 0, rerouted = 0, batches = 0, full = 0;
        double failovers = 0, p99 = 0, attainment = 0, qps = 0;
        for (const ClusterResult &r : fixed_) {
            arrivals += static_cast<double>(r.arrivals);
            rerouted += static_cast<double>(r.rerouted);
            batches += static_cast<double>(r.batches);
            full += static_cast<double>(r.batches_full);
            failovers += r.failovers;
            p99 += r.p99_ms;
            attainment += r.slo_attainment;
            qps += r.completed_qps;
        }
        const double n = static_cast<double>(fixed_.size());
        out["sim.host_ns_per_event"] = {
            spans.total("cluster.simulate") * 1e9 /
                static_cast<double>(events_),
            "ns"};
        out["sim.events_per_epoch"] = {
            static_cast<double>(fixed_events_) / static_cast<double>(epochs_),
            "count"};
        out["sim.messages_per_request"] = {
            static_cast<double>(messages_) / arrivals, "count"};
        out["cluster.trace_gen_ms"] = {
            median(spans.durations("cluster.trace_gen")) * 1e3, "ms"};
        out["cluster.chaos_timeline_ms"] = {
            median(spans.durations("cluster.chaos_timeline")) * 1e3, "ms"};
        out["cluster.rerouted_ratio"] = {rerouted / arrivals, "ratio"};
        out["cluster.batch_full_ratio"] = {full / batches, "ratio"};
        out["cluster.failovers"] = {failovers / n, "count"};
        out["model.p99_ms"] = {p99 / n, "sim_ms"};
        out["model.slo_attainment"] = {attainment / n, "ratio"};
        out["model.completed_qps"] = {qps / n, "1/s"};
    }

  private:
    static OpOutcome
    outcome(const ClusterResult &r)
    {
        return {static_cast<double>(r.arrivals), consistent(r), r.summary()};
    }

    ClusterSimulator sim_;
    std::uint64_t seed_ = 0;
    telemetry::Telemetry tel_;
    std::uint64_t events_ = 0;
    std::uint64_t fixed_events_ = 0;
    std::uint64_t epochs_ = 0;
    std::uint64_t messages_ = 0;
    std::vector<ClusterResult> fixed_;
};

} // namespace

std::unique_ptr<Workload>
makeClusterChaos()
{
    return std::make_unique<ClusterChaos>();
}

} // namespace mtia::perfbench

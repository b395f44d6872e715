#include "cluster/cluster_sim.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "core/check.h"
#include "core/parallel.h"
#include "sim/event_queue.h"
#include "sim/parallel_des.h"
#include "telemetry/telemetry.h"

namespace mtia {

namespace {

/** Completion callback of one chip job (move-only, inline-sized). */
using JobDone = InlineFunction<void(Tick)>;

/** One FIFO chip executing gather / merge / retry jobs. */
struct SimChip
{
    std::deque<Tick> durations;
    std::deque<JobDone> queue;
    /** Parked completion of the executing job (one at a time), so
     * scheduled events capture only indices and stay inline. */
    JobDone inflight;
    bool busy = false;
    Tick busy_accum = 0;
};

/** Join counter: a batch's gathers across chips, then one merge. */
struct BatchJoin
{
    unsigned remaining = 0;
    std::uint64_t id = 0;
    std::int64_t rows = 0;
};

/** Latency range for the bounded histograms: 1 us to ~100 s, in ms. */
telemetry::LogHistogram::Config
latencyHistogramConfig()
{
    telemetry::LogHistogram::Config cfg;
    cfg.min_value = 1e-3;
    cfg.max_value = 1e5;
    return cfg;
}

/**
 * One server replica: M chips + a deadline-aware batcher, plus every
 * counter its requests touch. A replica IS a ParallelDes partition:
 * all of this state is mutated only by events on the replica's own
 * queue. The local counters and histograms are merged (in replica
 * index order) into the ClusterResult and the registry after the run.
 */
struct SimReplica
{
    bool alive = true;
    /** Bumped on every kill; scheduled chip events carry the epoch
     * they were issued under and no-op on mismatch. */
    std::uint64_t epoch = 0;
    /** Service-time multiplier (warmup_slowdown while warming up). */
    double slowdown = 1.0;
    std::unique_ptr<DynamicBatcher> batcher;
    std::vector<SimChip> chips;
    /** Dispatched-but-unmerged batches, for failover re-routing.
     * Ordered by batch id so drains re-admit deterministically. */
    std::map<std::uint64_t, std::vector<ClusterRequest>> inflight;
    std::vector<std::unique_ptr<BatchJoin>> joins;

    // Replica-local results, merged after the run.
    telemetry::LogHistogram hist{latencyHistogramConfig()};
    /** Latency components, engaged only while telemetry is attached. */
    std::optional<telemetry::LogHistogram> hist_remote;
    std::optional<telemetry::LogHistogram> hist_merge;
    std::vector<std::int64_t> shard_rows;
    std::uint64_t completed = 0;
    std::uint64_t completed_in_slo = 0;
    std::uint64_t completed_in_window = 0;
    std::uint64_t ecc_errors = 0;
    std::uint64_t ecc_benign = 0;
    std::uint64_t ecc_corrupted = 0;
    std::uint64_t ecc_retries = 0;
    std::uint64_t ecc_crashes = 0;
    unsigned kills = 0;
};

/**
 * One simulation run, partitioned over a ParallelDes: partition 0 is
 * the controller plane (trace admission, routing, health sweeps,
 * failover orchestration) and partition 1 + r is replica r. The two
 * sides interact ONLY through des_.post() messages carrying the
 * fabric's one-way latency, which equals the epoch width:
 *
 *   controller -> replica: request admission, drain command after a
 *                          detected failover, restart command
 *   replica -> controller: heartbeat acks, death notices (true death
 *                          tick), batch-completion row credits, drain
 *                          responses (requests to re-route), warm-up
 *                          completion acks
 *
 * The controller routes on its OWN view of per-replica outstanding
 * rows (incremented at route time, decremented when completion / drain
 * credits arrive a latency later) — the usual stale-view routing of a
 * real distributed serving tier, and the property that keeps every
 * partition's state single-writer.
 */
class RunState
{
  public:
    RunState(const ClusterConfig &cfg, double qps, Tick duration,
             std::uint64_t seed, telemetry::Telemetry *tel)
        : cfg_(cfg), qps_(qps), duration_(duration), tel_(tel),
          net_(cfg.fabric.latency()), des_(1 + cfg.replicas, net_),
          controller_(cfg.replicas, cfg.health,
                      makeRoutingPolicy(cfg.routing, cfg.replicas)),
          hist_total_(latencyHistogramConfig())
    {
        Rng base(seed);
        Rng trace_rng = base.fork(0);
        ClusterTraceParams tp = cfg_.trace;
        tp.traffic.qps = qps;
        tp.traffic.duration = duration;
        tp.embedding_shards = cfg_.embedding_shards;
        trace_ = generateClusterTrace(trace_rng, tp);
        chaos_ = buildChaosTimeline(cfg_.chaos, cfg_.replicas,
                                    duration, base.fork(1));

        BatcherConfig bcfg = cfg_.batcher;
        bcfg.service_base =
            cfg_.service.merge_base + cfg_.service.gather_base;
        bcfg.service_per_row =
            cfg_.service.gather_per_row + cfg_.service.merge_per_row;
        replicas_.reserve(cfg_.replicas);
        for (unsigned r = 0; r < cfg_.replicas; ++r) {
            auto rep = std::make_unique<SimReplica>();
            rep->chips.resize(cfg_.chips_per_replica);
            rep->shard_rows.assign(cfg_.embedding_shards, 0);
            if (tel_ != nullptr) {
                rep->hist_remote.emplace(latencyHistogramConfig());
                rep->hist_merge.emplace(latencyHistogramConfig());
            }
            rep->batcher = std::make_unique<DynamicBatcher>(
                repq(r), bcfg, [this, r](ClusterBatch &&batch) {
                    dispatchBatch(r, std::move(batch));
                });
            replicas_.push_back(std::move(rep));
        }
        ctrl_outstanding_.assign(cfg_.replicas, 0);
        ctrl_cycle_.assign(cfg_.replicas, 0);
        shard_rows_.assign(cfg_.embedding_shards, 0);

        // Heartbeats and health sweeps outlive the trace by the worst
        // case detect-drain-reroute span, so a replica killed just
        // before the end is still detected and its pending requests
        // still complete (conservation) — while live replicas keep
        // acking and are never spuriously declared Down.
        hb_until_ = duration_ +
            cfg_.health.heartbeat_interval *
                (cfg_.health.miss_threshold + 2) +
            2 * net_;

        reg_total_ = nullptr;
        if (tel_ != nullptr)
            reg_total_ = &tel_->metrics.histogram(
                "cluster.latency_ms", {{"class", "total"}},
                latencyHistogramConfig());
    }

    ClusterResult run();

  private:
    /** The controller plane is partition 0... */
    static constexpr unsigned kCtrl = 0;
    /** ...and replica @p r is partition 1 + r. */
    static unsigned pid(unsigned r) { return 1 + r; }

    EventQueue &ctrlq() { return des_.queue(kCtrl); }
    EventQueue &repq(unsigned r) { return des_.queue(pid(r)); }

    // ------------------------------------------- controller partition

    /** Route one request (fresh arrival or failover re-admission). */
    void admit(const ClusterRequest &req)
    {
        const unsigned idx = controller_.route(req, ctrl_outstanding_);
        if (idx >= controller_.replicas()) {
            ++dropped_; // total outage: nothing routable
            return;
        }
        ctrl_outstanding_[idx] += req.candidates;
        des_.post(kCtrl, pid(idx), ctrlq().now() + net_,
                  [this, idx, req]() {
                      replicas_[idx]->batcher->add(req);
                  });
    }

    /** A sweep declared @p r Down: drain it, schedule its restart. */
    void handleDetectedDown(unsigned r, Tick now)
    {
        const std::uint64_t cycle = ++ctrl_cycle_[r];
        des_.post(kCtrl, pid(r), now + net_,
                  [this, r]() { drainReplica(r); });
        ctrlq().schedule(now + cfg_.health.restart_delay,
                         [this, r, cycle]() { beginRestart(r, cycle); });
    }

    void beginRestart(unsigned r, std::uint64_t cycle)
    {
        if (ctrl_cycle_[r] != cycle)
            return; // superseded by a later detection cycle
        // Cycle match means no later detection ran, so the replica is
        // still Down on the controller and markWarmingUp is legal.
        controller_.markWarmingUp(r, ctrlq().now());
        des_.post(kCtrl, pid(r), ctrlq().now() + net_,
                  [this, r, cycle]() { restartReplica(r, cycle); });
    }

    void scheduleHealthSweep(Tick t)
    {
        if (t >= hb_until_)
            return;
        ctrlq().schedule(t, [this, t]() {
            const std::vector<unsigned> down =
                controller_.checkHealth(ctrlq().now());
            for (const unsigned r : down)
                handleDetectedDown(r, ctrlq().now());
            scheduleHealthSweep(t + cfg_.health.heartbeat_interval);
        });
    }

    // ---------------------------------------------- replica partition

    void enqueueChipJob(unsigned rep_idx, unsigned chip_idx, Tick dur,
                        JobDone done)
    {
        SimChip &chip = replicas_[rep_idx]->chips[chip_idx];
        chip.durations.push_back(dur);
        chip.queue.push_back(std::move(done));
        pump(rep_idx, chip_idx);
    }

    void pump(unsigned rep_idx, unsigned chip_idx)
    {
        SimReplica &rep = *replicas_[rep_idx];
        if (!rep.alive)
            return;
        SimChip &chip = rep.chips[chip_idx];
        if (chip.busy || chip.durations.empty())
            return;
        chip.busy = true;
        // Warm-up slows the job at its start time.
        const Tick dur = static_cast<Tick>(
            static_cast<double>(chip.durations.front()) * rep.slowdown);
        chip.durations.pop_front();
        chip.inflight = std::move(chip.queue.front());
        chip.queue.pop_front();
        chip.busy_accum += dur;
        const std::uint64_t epoch = rep.epoch;
        EventQueue &eq = repq(rep_idx);
        eq.scheduleAfter(dur, [this, rep_idx, chip_idx, epoch]() {
            SimReplica &r = *replicas_[rep_idx];
            if (!r.alive || r.epoch != epoch)
                return;
            JobDone fire = std::move(r.chips[chip_idx].inflight);
            fire(repq(rep_idx).now());
        });
        eq.scheduleAfter(
            dur + cfg_.service.dispatch_gap,
            [this, rep_idx, chip_idx, epoch]() {
                SimReplica &r = *replicas_[rep_idx];
                if (!r.alive || r.epoch != epoch)
                    return;
                r.chips[chip_idx].busy = false;
                pump(rep_idx, chip_idx);
            });
    }

    void dispatchBatch(unsigned rep_idx, ClusterBatch &&batch)
    {
        SimReplica &rep = *replicas_[rep_idx];
        const std::uint64_t id = batch.id;
        const std::int64_t rows = batch.rows;
        // Per-shard row footprint of this batch.
        std::vector<std::int64_t> rows_per_shard(cfg_.embedding_shards,
                                                 0);
        for (const ClusterRequest &r : batch.requests)
            rows_per_shard[r.home_shard] += r.candidates;
        rep.inflight.emplace(id, std::move(batch.requests));
        if (!rep.alive)
            return; // lost until the controller detects and re-routes

        // Executed load lands on the shard map (re-executions after a
        // failover count again: that re-work is real).
        for (unsigned s = 0; s < cfg_.embedding_shards; ++s)
            rep.shard_rows[s] += rows_per_shard[s];

        // Gather on every chip owning a shard this batch touches, as
        // gather_jobs FIFO jobs that split the chip's gather time
        // evenly (the last takes the remainder)...
        rep.joins.push_back(std::make_unique<BatchJoin>());
        BatchJoin *join = rep.joins.back().get();
        join->id = id;
        join->rows = rows;
        std::vector<std::int64_t> chip_rows(cfg_.chips_per_replica, 0);
        for (unsigned s = 0; s < cfg_.embedding_shards; ++s)
            chip_rows[s % cfg_.chips_per_replica] += rows_per_shard[s];
        const unsigned jobs = cfg_.service.gather_jobs;
        for (unsigned c = 0; c < cfg_.chips_per_replica; ++c)
            if (chip_rows[c] > 0)
                join->remaining += jobs;
        MTIA_DCHECK_GT(join->remaining, 0u)
            << ": dispatched a batch with no gather work";
        for (unsigned c = 0; c < cfg_.chips_per_replica; ++c) {
            if (chip_rows[c] == 0)
                continue;
            const Tick total = cfg_.service.gather_base +
                cfg_.service.gather_per_row *
                    static_cast<Tick>(chip_rows[c]);
            const Tick each = total / jobs;
            for (unsigned j = 0; j < jobs; ++j)
                enqueueChipJob(rep_idx, c,
                               j + 1 < jobs ? each
                                            : total - each * (jobs - 1),
                               [this, rep_idx, join](Tick now) {
                                   if (--join->remaining == 0)
                                       scheduleMerge(rep_idx, join, now);
                               });
        }
    }

    void scheduleMerge(unsigned rep_idx, BatchJoin *join, Tick gathered)
    {
        // ...then one merge on the batch's home chip.
        const unsigned chip = static_cast<unsigned>(
            join->id % cfg_.chips_per_replica);
        const Tick dur = cfg_.service.merge_base +
            cfg_.service.merge_per_row * static_cast<Tick>(join->rows);
        enqueueChipJob(rep_idx, chip, dur,
                       [this, rep_idx, id = join->id, rows = join->rows,
                        gathered](Tick end) {
                           completeBatch(rep_idx, id, rows, gathered, end);
                       });
    }

    void completeBatch(unsigned rep_idx, std::uint64_t id,
                       std::int64_t rows, Tick gathered, Tick end)
    {
        SimReplica &rep = *replicas_[rep_idx];
        auto it = rep.inflight.find(id);
        if (it == rep.inflight.end())
            return; // drained by a failover before the merge landed
        for (const ClusterRequest &r : it->second) {
            const Tick latency = end - r.arrival;
            rep.hist.add(toMillis(latency));
            ++rep.completed;
            if (latency <= cfg_.batcher.slo)
                ++rep.completed_in_slo;
            if (end <= duration_)
                ++rep.completed_in_window;
            if (rep.hist_remote) {
                rep.hist_remote->add(toMillis(gathered - r.arrival));
                rep.hist_merge->add(toMillis(end - gathered));
            }
        }
        rep.inflight.erase(it);
        // Credit the controller's load view a network latency later.
        des_.post(pid(rep_idx), kCtrl, end + net_,
                  [this, rep_idx, rows]() {
                      ctrl_outstanding_[rep_idx] -= rows;
                      MTIA_DCHECK_GE(ctrl_outstanding_[rep_idx], 0)
                          << ": completion over-credited a replica";
                  });
    }

    void killReplica(unsigned r, Tick now)
    {
        SimReplica &rep = *replicas_[r];
        if (!rep.alive)
            return; // already dead: chaos double-kill is a no-op
        rep.alive = false;
        ++rep.epoch;
        for (SimChip &chip : rep.chips) {
            chip.durations.clear();
            chip.queue.clear();
            chip.inflight = JobDone();
            chip.busy = false;
        }
        ++rep.kills;
        // The controller learns the TRUE death tick (for the failover
        // detection-latency stats) one network latency later.
        des_.post(pid(r), kCtrl, now + net_, [this, r, now]() {
            controller_.noteDeath(r, now);
        });
    }

    /** DrainCmd landed: hand every pending request back for re-route. */
    void drainReplica(unsigned r)
    {
        SimReplica &rep = *replicas_[r];
        std::vector<ClusterRequest> pending = rep.batcher->drain();
        for (auto &[id, reqs] : rep.inflight)
            for (ClusterRequest &req : reqs)
                pending.push_back(req);
        rep.inflight.clear();
        // Mailbox FIFO order guarantees every admission the controller
        // sent before the drain command has already landed in the
        // batcher, so this response returns ALL unfinished requests.
        des_.post(pid(r), kCtrl, repq(r).now() + net_,
                  [this, r, pending = std::move(pending)]() {
                      std::int64_t rows = 0;
                      for (const ClusterRequest &req : pending)
                          rows += req.candidates;
                      ctrl_outstanding_[r] -= rows;
                      MTIA_DCHECK_GE(ctrl_outstanding_[r], 0)
                          << ": drain over-credited a replica";
                      rerouted_ += pending.size();
                      for (const ClusterRequest &req : pending)
                          admit(req);
                  });
    }

    void restartReplica(unsigned r, std::uint64_t cycle)
    {
        SimReplica &rep = *replicas_[r];
        MTIA_DCHECK(!rep.alive) << ": restarting a live replica";
        rep.alive = true;
        rep.slowdown = cfg_.health.warmup_slowdown;
        const std::uint64_t epoch = rep.epoch;
        repq(r).scheduleAfter(
            cfg_.health.warmup, [this, r, epoch, cycle]() {
                SimReplica &warmed = *replicas_[r];
                if (!warmed.alive || warmed.epoch != epoch)
                    return; // killed again mid-warm-up
                warmed.slowdown = 1.0;
                des_.post(pid(r), kCtrl, repq(r).now() + net_,
                          [this, r, cycle]() {
                              // Stale acks (superseded cycle, or the
                              // replica already re-detected Down) are
                              // ignored; staleness re-detection owns
                              // the killed-mid-warm-up path.
                              if (ctrl_cycle_[r] != cycle)
                                  return;
                              if (controller_.health(r) ==
                                  ReplicaHealth::WarmingUp)
                                  controller_.markHealthy(
                                      r, ctrlq().now());
                          });
            });
    }

    void handleChaos(const ChaosEvent &e)
    {
        SimReplica &rep = *replicas_[e.replica];
        if (e.kind == ChaosKind::ReplicaKill) {
            killReplica(e.replica, repq(e.replica).now());
            return;
        }
        if (!rep.alive)
            return; // a dead replica takes no new errors
        ++rep.ecc_errors;
        switch (e.outcome) {
        case ErrorOutcome::Benign:
            ++rep.ecc_benign;
            break;
        case ErrorOutcome::Corrupted:
            // Wrong-but-finite outputs: the response completes and the
            // quality counter records the blast radius.
            ++rep.ecc_corrupted;
            break;
        case ErrorOutcome::NaN: {
            // NaN consequence: the runtime re-executes the affected
            // slice, costing chip time on the replica.
            ++rep.ecc_retries;
            const unsigned chip = static_cast<unsigned>(
                e.time % cfg_.chips_per_replica);
            enqueueChipJob(e.replica, chip, cfg_.service.retry_penalty,
                           JobDone([](Tick) {}));
            break;
        }
        case ErrorOutcome::OutOfBounds:
            // Crash-equivalent index fault: the replica dies and the
            // failover machinery takes over.
            ++rep.ecc_crashes;
            killReplica(e.replica, repq(e.replica).now());
            break;
        }
    }

    void scheduleHeartbeat(unsigned r, Tick t)
    {
        if (t >= hb_until_)
            return;
        repq(r).schedule(t, [this, r, t]() {
            if (replicas_[r]->alive)
                des_.post(pid(r), kCtrl, t + net_, [this, r]() {
                    controller_.heartbeat(r, ctrlq().now());
                });
            scheduleHeartbeat(r, t + cfg_.health.heartbeat_interval);
        });
    }

    const ClusterConfig &cfg_;
    double qps_;
    Tick duration_;
    telemetry::Telemetry *tel_;

    /** One-way controller<->replica latency; also the epoch width. */
    Tick net_;
    ParallelDes des_;
    ClusterController controller_;
    std::vector<std::unique_ptr<SimReplica>> replicas_;
    std::vector<ClusterRequest> trace_;
    std::vector<ChaosEvent> chaos_;
    /** Last tick heartbeat / sweep chains stay live (trace + grace). */
    Tick hb_until_ = 0;

    // Controller-partition state: the control plane's LAGGED view of
    // per-replica outstanding rows, and the per-replica failover cycle
    // counter that fences stale restart / warm-up messages.
    std::vector<std::int64_t> ctrl_outstanding_;
    std::vector<std::uint64_t> ctrl_cycle_;
    std::uint64_t rerouted_ = 0;
    std::uint64_t dropped_ = 0;

    // Merged from the replica partitions after the run.
    std::vector<std::int64_t> shard_rows_;
    telemetry::LogHistogram hist_total_;
    telemetry::LogHistogram *reg_total_ = nullptr;
};

ClusterResult
RunState::run()
{
    // Arrivals replay the fixed trace on the controller partition;
    // chaos replays its fixed timeline on the replica it strikes;
    // heartbeats and health sweeps tick until the trace ends plus a
    // grace window (sweeps offset half an interval past the ack
    // arrivals so acks land first).
    for (std::size_t i = 0; i < trace_.size(); ++i)
        ctrlq().schedule(trace_[i].arrival,
                         [this, i]() { admit(trace_[i]); });
    for (std::size_t i = 0; i < chaos_.size(); ++i)
        repq(chaos_[i].replica)
            .schedule(chaos_[i].time,
                      [this, i]() { handleChaos(chaos_[i]); });
    for (unsigned r = 0; r < cfg_.replicas; ++r)
        scheduleHeartbeat(r, cfg_.health.heartbeat_interval);
    scheduleHealthSweep(cfg_.health.heartbeat_interval +
                        cfg_.health.heartbeat_interval / 2 + net_);

    des_.run();

    ClusterResult out;
    out.policy = routingPolicyKindName(cfg_.routing);
    out.offered_qps = qps_;
    out.arrivals = trace_.size();
    out.rerouted = rerouted_;
    out.dropped = dropped_;

    // Replica-local results merge in replica index order — a fixed
    // order, so the merged bytes are a pure function of the run.
    std::uint64_t completed_in_window = 0;
    for (const auto &rep : replicas_) {
        hist_total_.merge(rep->hist);
        out.completed += rep->completed;
        out.completed_in_slo += rep->completed_in_slo;
        completed_in_window += rep->completed_in_window;
        for (unsigned s = 0; s < cfg_.embedding_shards; ++s)
            shard_rows_[s] += rep->shard_rows[s];
        out.kills += rep->kills;
        out.ecc_errors += rep->ecc_errors;
        out.ecc_benign += rep->ecc_benign;
        out.ecc_corrupted += rep->ecc_corrupted;
        out.ecc_retries += rep->ecc_retries;
        out.ecc_crashes += rep->ecc_crashes;
        const BatcherStats &bs = rep->batcher->stats();
        out.batches += bs.batches;
        out.batches_full += bs.closed_full;
        out.batches_deadline += bs.closed_deadline;
        out.batches_window += bs.closed_window;
    }
    out.completed_qps = static_cast<double>(completed_in_window) /
        toSeconds(duration_);
    if (!hist_total_.empty()) {
        out.p50_ms = hist_total_.percentile(50);
        out.p99_ms = hist_total_.percentile(99);
    }
    out.slo_attainment = out.arrivals == 0
        ? 0.0
        : static_cast<double>(out.completed_in_slo) /
            static_cast<double>(out.arrivals);
    out.shard_rows = shard_rows_;
    out.shard_skew = shardSkew(shard_rows_);
    const std::vector<FailoverRecord> &fo = controller_.failovers();
    out.failovers = static_cast<unsigned>(fo.size());
    double detect_sum = 0.0;
    double recover_sum = 0.0;
    std::uint64_t recovered = 0;
    for (const FailoverRecord &rec : fo) {
        detect_sum += toMillis(rec.detected - rec.died);
        if (rec.restored != 0) {
            const double rec_ms = toMillis(rec.restored - rec.died);
            recover_sum += rec_ms;
            out.max_recovery_ms = std::max(out.max_recovery_ms, rec_ms);
            ++recovered;
        }
    }
    if (!fo.empty())
        out.mean_detection_ms =
            detect_sum / static_cast<double>(fo.size());
    if (recovered != 0)
        out.mean_recovery_ms =
            recover_sum / static_cast<double>(recovered);

    if (tel_ != nullptr) {
        if (reg_total_ != nullptr)
            reg_total_->merge(hist_total_);
        auto &m = tel_->metrics;
        auto &reg_remote = m.histogram("cluster.latency_ms",
                                       {{"class", "remote"}},
                                       latencyHistogramConfig());
        auto &reg_merge = m.histogram("cluster.latency_ms",
                                      {{"class", "merge"}},
                                      latencyHistogramConfig());
        for (const auto &rep : replicas_) {
            reg_remote.merge(*rep->hist_remote);
            reg_merge.merge(*rep->hist_merge);
        }
        m.counter("cluster.requests", {{"event", "arrived"}})
            .inc(out.arrivals);
        m.counter("cluster.requests", {{"event", "completed"}})
            .inc(out.completed);
        m.counter("cluster.requests", {{"event", "rerouted"}})
            .inc(rerouted_);
        m.counter("cluster.requests", {{"event", "dropped"}})
            .inc(dropped_);
        m.counter("cluster.ecc", {{"outcome", "benign"}})
            .inc(out.ecc_benign);
        m.counter("cluster.ecc", {{"outcome", "corrupted"}})
            .inc(out.ecc_corrupted);
        m.counter("cluster.ecc", {{"outcome", "retry"}})
            .inc(out.ecc_retries);
        m.counter("cluster.ecc", {{"outcome", "crash"}})
            .inc(out.ecc_crashes);
        m.counter("cluster.failovers").inc(out.failovers);
        m.counter("sim.events_executed").inc(des_.executed());
        m.counter("cluster.des_epochs").inc(des_.epochsRun());
        m.counter("cluster.des_messages").inc(des_.messagesDelivered());
        // The controller queue carries the cluster-wide control plane;
        // it stands in for the run in the queue-shape metrics.
        ctrlq().publishMetrics(m);
    }
    return out;
}

} // namespace

std::string
ClusterResult::summary() const
{
    char line[192];
    std::string out;
    const auto add = [&out, &line](int n) {
        MTIA_DCHECK_GT(n, 0) << ": summary formatting failed";
        out.append(line, static_cast<std::size_t>(n));
    };
    add(std::snprintf(line, sizeof line, "policy=%s\n", policy.c_str()));
    add(std::snprintf(line, sizeof line,
                      "offered_qps=%.6f completed_qps=%.6f\n",
                      offered_qps, completed_qps));
    add(std::snprintf(
        line, sizeof line,
        "arrivals=%" PRIu64 " completed=%" PRIu64
        " completed_in_slo=%" PRIu64 " rerouted=%" PRIu64
        " dropped=%" PRIu64 "\n",
        arrivals, completed, completed_in_slo, rerouted, dropped));
    add(std::snprintf(line, sizeof line,
                      "p50_ms=%.6f p99_ms=%.6f slo_attainment=%.6f\n",
                      p50_ms, p99_ms, slo_attainment));
    out += "shard_rows=[";
    for (std::size_t s = 0; s < shard_rows.size(); ++s) {
        add(std::snprintf(line, sizeof line, "%s%" PRId64,
                          s == 0 ? "" : ",", shard_rows[s]));
    }
    add(std::snprintf(line, sizeof line, "] shard_skew=%.6f\n",
                      shard_skew));
    add(std::snprintf(
        line, sizeof line,
        "batches=%" PRIu64 " full=%" PRIu64 " deadline=%" PRIu64
        " window=%" PRIu64 "\n",
        batches, batches_full, batches_deadline, batches_window));
    add(std::snprintf(line, sizeof line,
                      "kills=%u failovers=%u detection_ms=%.6f "
                      "recovery_ms=%.6f max_recovery_ms=%.6f\n",
                      kills, failovers, mean_detection_ms,
                      mean_recovery_ms, max_recovery_ms));
    add(std::snprintf(
        line, sizeof line,
        "ecc=%" PRIu64 " benign=%" PRIu64 " corrupted=%" PRIu64
        " retries=%" PRIu64 " crashes=%" PRIu64 "\n",
        ecc_errors, ecc_benign, ecc_corrupted, ecc_retries,
        ecc_crashes));
    return out;
}

ClusterSimulator::ClusterSimulator(ClusterConfig cfg) : cfg_(std::move(cfg))
{
    MTIA_CHECK_GT(cfg_.replicas, 0u)
        << ": cluster needs at least one replica";
    MTIA_CHECK_GT(cfg_.chips_per_replica, 0u)
        << ": replicas need at least one chip";
    MTIA_CHECK_GT(cfg_.embedding_shards, 0u)
        << ": cluster needs at least one embedding shard";
    MTIA_CHECK_GT(cfg_.service.gather_jobs, 0u)
        << ": a gather needs at least one job";
    MTIA_CHECK_GT(cfg_.batcher.capacity, 0)
        << ": batcher capacity must be positive";
    MTIA_CHECK_GT(cfg_.batcher.window, 0u)
        << ": batcher window must be positive";
    MTIA_CHECK_GT(cfg_.batcher.slo,
                  cfg_.service.gather_base + cfg_.service.merge_base)
        << ": SLO must exceed the unloaded gather + merge time";

    // The fabric latency is the DES epoch width, and the
    // control-plane protocol leans on it being small against the
    // health timers: a heartbeat must cross the fabric within one
    // interval (else freshly-booted replicas look silent), and a
    // drain round trip must finish before the restart command lands.
    const Tick net = cfg_.fabric.latency();
    MTIA_CHECK_GE(net, 1u) << ": fabric latency must be at least one tick";
    MTIA_CHECK_LT(net, cfg_.health.heartbeat_interval)
        << ": fabric latency must undercut the heartbeat interval";
    MTIA_CHECK_GT(cfg_.health.restart_delay, 2 * net)
        << ": restart delay must cover a drain round trip";
}

ClusterResult
ClusterSimulator::simulate(double qps, Tick duration,
                           std::uint64_t seed) const
{
    return simulateImpl(qps, duration, seed, telemetry_);
}

ClusterResult
ClusterSimulator::simulateImpl(double qps, Tick duration,
                               std::uint64_t seed,
                               telemetry::Telemetry *tel) const
{
    MTIA_CHECK_GT(qps, 0.0) << ": cluster offered load";
    MTIA_CHECK_GT(duration, 0u) << ": cluster sim duration";
    RunState state(cfg_, qps, duration, seed, tel);
    return state.run();
}

std::vector<ClusterResult>
ClusterSimulator::sweep(const std::vector<double> &qps, Tick duration,
                        std::uint64_t seed) const
{
    const Rng base(seed);
    // One fork substream per load point; telemetry-detached because
    // the registry is shared mutable state across lanes.
    return parallelMap(qps.size(), [&](std::size_t i) {
        return simulateImpl(qps[i], duration, base.fork(i).next(),
                            nullptr);
    });
}

double
ClusterSimulator::maxQpsAtSlo(double lo, double hi, Tick duration,
                              std::uint64_t seed) const
{
    const double slo_ms = toMillis(cfg_.batcher.slo);
    const auto meets = [&](double qps) {
        const ClusterResult r = simulate(qps, duration, seed);
        return r.completed > 0 && r.p99_ms <= slo_ms;
    };
    if (!meets(lo))
        return 0.0;
    for (int iter = 0; iter < 18; ++iter) {
        const double mid = 0.5 * (lo + hi);
        (meets(mid) ? lo : hi) = mid;
    }
    return lo;
}

} // namespace mtia

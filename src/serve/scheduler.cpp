#include "scheduler.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "common/crc32.h"

namespace eddie::serve
{

namespace
{

/** Steady-clock milliseconds (monotonic; only differences matter). */
double
nowMs()
{
    using namespace std::chrono;
    return duration<double, std::milli>(
               steady_clock::now().time_since_epoch())
        .count();
}

void
sleepMs(double ms)
{
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(std::max(ms, 0.0)));
}

/** Session lifecycle states (stored in an atomic<int>). */
enum SessionState : int
{
    kIdle = 0,  ///< queue empty; feeders will re-enqueue on push
    kReady,     ///< in its tenant's fifo, waiting for a worker
    kRunning,   ///< a worker is executing a batch
    kFailed,    ///< relinquished after crash/hang/dead source
    kEof,       ///< source exhausted, queue drained, final cut taken
    kStopped,   ///< graceful stop before EOF
    kEscalated, ///< tenant breaker / budget isolation
};

bool
isTerminal(int st)
{
    return st == kEof || st == kStopped || st == kEscalated;
}

/** Longest a feeder parks on its Readiness before re-polling its
 *  partition: bounds how late a Pending source's stall timeout is
 *  noticed, and how late a missed wakeup could be. */
constexpr double kReadinessParkMs = 20.0;

} // namespace

/** One multiplexed session. No thread of its own: feeders visit it by
 *  partition, workers by run-queue pick, the watchdog by scan. */
struct FleetScheduler::Session
{
    std::size_t index = 0;
    SchedulerSessionSpec spec;

    std::shared_ptr<const core::TrainedModel> model;
    std::unique_ptr<core::Monitor> monitor;
    /** Shared so a feeder can wait on it for room after releasing
     *  feed_mu, while a restart swaps in a fresh one. */
    std::shared_ptr<StsQueue> queue;
    /** Queue counters accumulated across restarts (a restart swaps in
     *  a fresh queue). Guarded by FleetScheduler::mu_. */
    QueueStats queue_acc;
    SourceStats source_snap;

    /**
     * Serializes the feed side (pending, source position, queue
     * identity) between the owning feeder and watchdog restarts.
     * Lock order: feed_mu -> mu_ -> queue's internal lock; the
     * watchdog never takes feed_mu while holding mu_.
     */
    std::mutex feed_mu;
    /** Pulled-but-not-yet-admitted holdover (feed side). With the
     *  non-blocking pushBatch this is what keeps one tenant's full
     *  queue from parking the whole ingestion partition. */
    std::vector<core::Sts> pending;
    /** Pulled window the tenant's rate quota has not admitted yet
     *  (feed side). */
    std::optional<core::Sts> held;
    bool feed_eof = false; ///< guarded by feed_mu

    std::atomic<int> state{kIdle};
    /** Teardown/hang-break flag, honored by step hooks. */
    std::atomic<bool> cancel{false};
    std::atomic<bool> in_step{false};
    std::atomic<bool> crashed{false};
    std::atomic<bool> source_dead{false};
    /** Completed-step counter — the watchdog's progress signal. A
     *  session is hung only when in_step holds with this frozen past
     *  the deadline; merely waiting for worker time never advances
     *  in_step, so multiplexing delay cannot look like a hang. */
    std::atomic<std::uint64_t> progress_seq{0};
    std::atomic<std::uint64_t> processed{0};
    /** Live longest-quarantine-run for the storm check. */
    std::atomic<std::uint64_t> longest_outage{0};

    // Watchdog-only hang-tracking state.
    std::uint64_t wd_seen_seq = 0;
    double wd_seen_ms = 0.0;
    bool hang_signaled = false;

    /** Steps since the last delta cut. Touched only by the worker
     *  currently running the session (Running excludes all others)
     *  or by the watchdog while the session is Failed. */
    std::size_t since_ckpt = 0;
    /** Reload generation of this session's model (owner-only, like
     *  since_ckpt). */
    std::uint64_t model_gen = 0;
};

/** Level-1 run-queue entry: one tenant's runnable sessions plus its
 *  DRR account. Guarded by mu_. */
struct FleetScheduler::TenantLane
{
    Tenant *tenant = nullptr;
    std::deque<Session *> fifo;
    /** Steps this tenant may still spend before the ring rotates past
     *  it. Replenished by quantum when its turn comes up with a
     *  depleted account; charged with the steps a dispatch actually
     *  executed. Never drops below -batch_steps (the debt bound: a
     *  dispatch starts with deficit > 0 — or >= 0 right after an
     *  empty-fifo reset — and charges at most one batch). */
    double deficit = 0.0;
    double quantum = 1.0;
    bool in_ring = false;
    bool escalated = false;
};

FleetScheduler::FleetScheduler(SchedulerRunConfig cfg,
                               std::vector<SchedulerSessionSpec> specs,
                               std::vector<Tenant *> tenants,
                               std::atomic<bool> &stop)
    : cfg_(std::move(cfg)), tenants_(std::move(tenants)), stop_(stop)
{
    const std::size_t hw =
        std::max(1u, std::thread::hardware_concurrency());
    worker_count_ = cfg_.sched.workers != 0
                        ? cfg_.sched.workers
                        : std::clamp<std::size_t>(specs.size(), 1, hw);
    feeder_count_ = cfg_.sched.feeders != 0
                        ? cfg_.sched.feeders
                        : std::min<std::size_t>(2, worker_count_);
    // DRR weight = the tenant's STS/s quota; unlimited tenants (0)
    // weigh in at the largest configured quota so a quota is never a
    // way to out-schedule an uncapped neighbor. All-unlimited fleets
    // degenerate to equal quanta.
    double max_rate = 0.0;
    for (const Tenant *t : tenants_)
        max_rate = std::max(max_rate, t->spec().quota.sts_per_s);
    if (max_rate <= 0.0)
        max_rate = 1.0;
    lanes_.resize(tenants_.size());
    for (Tenant *t : tenants_) {
        TenantLane &lane = lanes_[t->index()];
        lane.tenant = t;
        const double rate = t->spec().quota.sts_per_s;
        const double w = rate > 0.0 ? rate : max_rate;
        lane.quantum = std::max(
            1.0, cfg_.sched.quantum_steps * w / max_rate);
    }
    sessions_.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        auto s = std::make_unique<Session>();
        s->index = i;
        s->spec = std::move(specs[i]);
        sessions_.push_back(std::move(s));
    }
}

FleetScheduler::~FleetScheduler()
{
    // run() joins everything; a scheduler destroyed without run()
    // has no threads.
    wakeForTeardown();
    for (std::thread &t : workers_)
        if (t.joinable())
            t.join();
    for (std::thread &t : feeders_)
        if (t.joinable())
            t.join();
}

void
FleetScheduler::enqueueLocked(Session &s)
{
    TenantLane &lane = lanes_[s.spec.tenant->index()];
    if (lane.escalated)
        return;
    s.state.store(kReady);
    lane.fifo.push_back(&s);
    if (!lane.in_ring) {
        lane.in_ring = true;
        ring_.push_back(s.spec.tenant->index());
    }
}

FleetScheduler::Session *
FleetScheduler::pickLocked()
{
    // Deficit round robin. Bounded: every full ring rotation adds
    // quantum (>= 1 step) to each visited lane, and deficits start
    // above -batch_steps, so a positive account surfaces within
    // O(batch_steps) rotations.
    while (!ring_.empty()) {
        const std::size_t li = ring_.front();
        TenantLane &lane = lanes_[li];
        if (lane.fifo.empty()) {
            // Nothing runnable: leave the ring and forfeit surplus —
            // credit does not accrue while idle.
            lane.in_ring = false;
            lane.deficit = std::min(lane.deficit, 0.0);
            ring_.pop_front();
            continue;
        }
        if (lane.deficit <= 0.0) {
            lane.deficit += lane.quantum;
            ring_.pop_front();
            ring_.push_back(li);
            continue;
        }
        Session *s = lane.fifo.front();
        lane.fifo.pop_front();
        // Reserve the whole batch up front; dispatch refunds the
        // unexecuted remainder. Charging after the fact instead
        // would let several workers pick the same barely-positive
        // lane concurrently and overdraw it to -workers x batch —
        // reservation is what makes the -batch_steps debt bound hold
        // under concurrency, not just in the single-worker schedule.
        lane.deficit -=
            double(std::max<std::size_t>(cfg_.sched.batch_steps, 1));
        min_deficit_ = std::min(min_deficit_, lane.deficit);
        return s;
    }
    return nullptr;
}

void
FleetScheduler::cutDelta(Session &s)
{
    s.spec.store->submitDelta(s.spec.store_shard,
                              s.monitor->exportDelta());
    checkpoints_written_.fetch_add(1);
}

void
FleetScheduler::finishSession(Session &s, int terminal_state)
{
    s.state.store(terminal_state);
    if (s.queue)
        s.queue->close();
}

void
FleetScheduler::escalateTenantLocked(Tenant &tenant)
{
    TenantLane &lane = lanes_[tenant.index()];
    if (lane.escalated)
        return;
    lane.escalated = true;
    breaker_trips_.fetch_add(1);
    lane.fifo.clear();
    for (auto &sp : sessions_) {
        Session &s = *sp;
        if (s.spec.tenant != &tenant || isTerminal(s.state.load()))
            continue;
        if (s.state.load() == kRunning) {
            // The worker converts to Escalated at relinquish (it sees
            // lane.escalated under mu_); cancel breaks a stuck hook.
            s.cancel.store(true);
            continue;
        }
        escalations_.fetch_add(1);
        finishSession(s, kEscalated);
    }
}

void
FleetScheduler::handleFailure(Session &s, double now_ms)
{
    // A caught step exception is a crash, a watchdog-broken stuck
    // step a hang, a delivery path past its retry budget neither (the
    // source's give_ups already count it).
    if (s.crashed.load())
        worker_crashes_.fetch_add(1);
    else if (!s.source_dead.load())
        worker_hangs_.fetch_add(1);

    Tenant &tenant = *s.spec.tenant;
    if (tenant.breaker().record(FaultClass::WorkerFault, now_ms)) {
        std::lock_guard<std::mutex> lock(mu_);
        escalateTenantLocked(tenant);
        return;
    }

    // The store mirror is the session's newest cut (deltas apply to
    // it synchronously on submit, before any disk latency).
    const CheckpointData ckpt =
        s.spec.store->mirror(s.spec.store_shard);
    bool restartable = tenant.budget().allow(now_ms);

    // feed_mu freezes the owning feeder while the source is re-seeked
    // and the holdover + queue are discarded (their windows replay
    // from the re-seeked source).
    std::lock_guard<std::mutex> feed(s.feed_mu);
    if (restartable)
        restartable = s.spec.source->seek(ckpt.source_pos);
    if (!restartable) {
        escalations_.fetch_add(1);
        std::lock_guard<std::mutex> lock(mu_);
        finishSession(s, kEscalated);
        return;
    }
    s.pending.clear();
    s.held.reset();
    s.feed_eof = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (s.queue) {
            const QueueStats q = s.queue->stats();
            s.queue_acc.pushed += q.pushed;
            s.queue_acc.popped += q.popped;
            s.queue_acc.dropped_oldest += q.dropped_oldest;
            s.queue_acc.blocked_pushes += q.blocked_pushes;
            s.queue_acc.spurious_wakeups += q.spurious_wakeups;
            s.queue_acc.max_depth =
                std::max(s.queue_acc.max_depth, q.max_depth);
        }
        s.queue = std::make_shared<StsQueue>(s.spec.queue);
        s.cancel.store(false);
        s.crashed.store(false);
        s.source_dead.store(false);
        s.in_step.store(false);
        s.hang_signaled = false;
        s.wd_seen_seq = s.progress_seq.load();
        s.wd_seen_ms = nowMs();
        s.since_ckpt = 0;
        s.monitor = std::make_unique<core::Monitor>(*s.model,
                                                    cfg_.monitor);
        s.monitor->restoreState(ckpt.monitor);
        // Back to Idle: the feeder refills the fresh queue and
        // re-enqueues on the first push.
        s.state.store(kIdle);
    }
    readiness_[s.index % feeder_count_]->raise();
    checkpoint_restores_.fetch_add(1);
    worker_restarts_.fetch_add(1);
    restart_latency_ms_.fetch_add(nowMs() - now_ms);
}

void
FleetScheduler::feedSession(Session &s, FeedRound &round)
{
    if (s.feed_eof && s.pending.empty())
        return;
    if (s.source_dead.load())
        return;
    std::size_t pushed = 0;
    if (!s.pending.empty())
        pushed = s.queue->pushBatch(s.pending, /*may_block=*/false);
    if (s.pending.empty() && !s.feed_eof) {
        Tenant &tenant = *s.spec.tenant;
        // Block clamps the pull to the queue's headroom; DropOldest
        // pulls past it so pushBatch evicts (a clamp there would turn
        // DropOldest into Block).
        std::size_t want = cfg_.sched.feed_chunk;
        bool fills = false; // pulling `want` fills the queue
        if (s.spec.queue.policy == BackpressurePolicy::Block) {
            const std::size_t room = s.queue->headroom();
            fills = room <= want;
            want = std::min(want, room);
            // Zero headroom on an open queue is where a blocking push
            // would have parked: count it, so Block backpressure
            // stays observable.
            if (want == 0 && !s.queue->closed()) {
                feed_defers_.fetch_add(1);
                round.noteFull(s.queue);
            }
        }
        const bool pulling = want > 0;
        while (want > 0) {
            if (!s.held) {
                Pull pull = s.spec.source->next();
                if (pull.status == PullStatus::Pending)
                    break; // the source raises our Readiness later
                if (pull.status == PullStatus::EndOfStream) {
                    s.feed_eof = true;
                    break;
                }
                if (pull.status == PullStatus::Stalled ||
                    pull.status == PullStatus::TransientError) {
                    // Past the retry layer: flag for the watchdog.
                    s.source_dead.store(true);
                    break;
                }
                s.held = std::move(pull.sts);
            }
            // Rate quota on a pulled window, so an idle pull charges
            // nothing: Throttle holds it back without reordering or
            // losing windows (verdicts stay bit-identical); Shed drops
            // it, counted by the tenant.
            double wait_ms = 0.0;
            const RateDecision d =
                tenant.admitWindow(nowMs(), wait_ms);
            if (d == RateDecision::Throttle) {
                // Skip to the next session instead of napping: the
                // feeder is shared, one throttled tenant must not
                // stall its partition.
                throttle_skips_.fetch_add(1);
                round.blocked = true;
                break;
            }
            --want;
            if (d == RateDecision::Admit)
                s.pending.push_back(std::move(*s.held));
            s.held.reset();
        }
        if (pulling && want == 0) {
            // The chunk ran out. If it was the queue's whole headroom,
            // the queue is now full; otherwise the source may hold more
            // right now.
            if (fills)
                round.noteFull(s.queue);
            else
                round.more = true;
        }
        if (!s.pending.empty())
            pushed += s.queue->pushBatch(s.pending, /*may_block=*/false);
    }
    if (!s.pending.empty())
        round.noteFull(s.queue); // the bound refused the rest
    const bool closing = s.feed_eof && s.pending.empty();
    if (closing)
        s.queue->close();
    if (pushed == 0 && !closing)
        return; // nothing new for the run queue

    // Wake the run queue. The emptiness check and the Idle->Ready
    // transition are both under mu_, and the push above happened
    // before this point, so a worker parking the session Idle
    // concurrently cannot lose the wakeup. The notify follows the
    // unlock, so the woken worker does not block on mu_ at once.
    bool wake = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (s.state.load() == kIdle) {
            const std::size_t cap =
                std::max<std::size_t>(s.spec.queue.capacity, 1);
            if (s.queue->headroom() < cap || s.queue->closed()) {
                enqueueLocked(s);
                wake = true;
            }
        }
    }
    if (wake)
        work_cv_.notify_one();
}

void
FleetScheduler::feederLoop(std::size_t feeder)
{
    Readiness &ready = *readiness_[feeder];
    while (!done_.load() && !stop_.load()) {
        FeedRound round;
        for (std::size_t i = feeder; i < sessions_.size();
             i += feeder_count_) {
            if (done_.load() || stop_.load())
                break;
            Session &s = *sessions_[i];
            const int st = s.state.load();
            if (isTerminal(st) || st == kFailed)
                continue;
            // try_lock: the watchdog holds feed_mu across a restart;
            // skip and revisit rather than queueing behind it.
            std::unique_lock<std::mutex> feed(s.feed_mu,
                                              std::try_to_lock);
            if (!feed.owns_lock()) {
                round.blocked = true;
                continue;
            }
            feedSession(s, round);
        }
        if (round.more)
            continue;
        feeder_naps_.fetch_add(1);
        // A full queue drains on the workers' schedule, which raises
        // nothing: nap, ending early once the first full queue frees
        // a slot (a lone session then refills at its worker's pace,
        // not one queue per nap). Otherwise every source is Pending
        // or done, and the next window (or a restart, stop, or
        // teardown) raises the Readiness; a raise since the last pull
        // is latched, so none is lost.
        if (round.full)
            round.full->waitNotFullFor(cfg_.sched.feeder_idle_ms);
        else if (round.blocked)
            sleepMs(cfg_.sched.feeder_idle_ms);
        else
            ready.waitFor(kReadinessParkMs);
    }
}

void
FleetScheduler::dispatch(Session &s, std::vector<core::Sts> &batch,
                         double &busy_ms)
{
    if (s.model_gen != model_gen_.load())
        swapModel(s);
    const double t0 = nowMs();
    const std::size_t max_steps =
        std::max<std::size_t>(cfg_.sched.batch_steps, 1);
    dispatches_.fetch_add(1);
    double wait_ms = 0.0, work_ms = 0.0, cut_ms = 0.0;
    std::size_t executed = 0;
    // -1 = batch ran to completion; decide Ready/Idle under mu_.
    int next_state = -1;

    const double t_wait = nowMs();
    const std::size_t n = s.queue->popBatch(batch, max_steps, 0.0);
    wait_ms += nowMs() - t_wait;

    if (n == 0) {
        if (s.queue->drained()) {
            // The final cut rides the watchdog's group commit.
            const double t_cut = nowMs();
            cutDelta(s);
            cut_ms += nowMs() - t_cut;
            next_state = kEof;
        }
        // else: fall through to the under-lock Ready/Idle decision —
        // a feeder may have pushed between the pop and here, and only
        // a check under mu_ can't lose that wakeup.
    } else {
        for (core::Sts &sts : batch) {
            if (s.cancel.load()) {
                next_state = kFailed;
                break;
            }
            if (stop_.load()) {
                const double t_cut = nowMs();
                cutDelta(s);
                cut_ms += nowMs() - t_cut;
                s.queue->close(); // unblocks a feeder mid-push
                next_state = kStopped;
                break;
            }
            s.in_step.store(true);
            const double t_step = nowMs();
            try {
                if (hook_)
                    hook_(s.index, s.spec.tenant->id(),
                          s.monitor->records().size(), s.cancel);
                s.monitor->step(sts);
            } catch (...) {
                s.in_step.store(false);
                s.crashed.store(true);
                next_state = kFailed;
                break;
            }
            work_ms += nowMs() - t_step;
            s.in_step.store(false);
            s.progress_seq.fetch_add(1);
            s.processed.fetch_add(1);
            ++executed;
            s.longest_outage.store(
                s.monitor->degradedStats().longest_outage);
            if (cfg_.checkpoint_interval != 0 &&
                ++s.since_ckpt >= cfg_.checkpoint_interval) {
                s.since_ckpt = 0;
                const double t_cut = nowMs();
                cutDelta(s);
                cut_ms += nowMs() - t_cut;
            }
        }
    }

    steps_.fetch_add(executed);
    queue_wait_ms_.fetch_add(wait_ms);
    step_ms_.fetch_add(work_ms);
    checkpoint_ms_.fetch_add(cut_ms);
    busy_ms += nowMs() - t0;

    // Relinquish: refund the unexecuted part of the pick-time batch
    // reservation and hand the session to its next owner (run queue,
    // feeder, or watchdog).
    std::lock_guard<std::mutex> lock(mu_);
    TenantLane &lane = lanes_[s.spec.tenant->index()];
    lane.deficit += static_cast<double>(max_steps - executed);

    if (lane.escalated) {
        // Tenant was isolated while this batch ran.
        escalations_.fetch_add(1);
        finishSession(s, kEscalated);
        return;
    }
    if (next_state == kEof || next_state == kStopped) {
        finishSession(s, next_state);
        return;
    }
    if (next_state == kFailed) {
        s.state.store(kFailed); // the watchdog takes it from here
        return;
    }
    // Still-queued work (or a closed queue needing its drained /
    // final-cut pass) goes back to the run queue; an empty open
    // queue parks Idle for the feeder. This check runs under mu_ —
    // the feeder's Idle->Ready wake also runs under mu_ after its
    // push, so every interleaving either sees the new windows here
    // or sees our Idle there.
    const std::size_t cap =
        std::max<std::size_t>(s.spec.queue.capacity, 1);
    const bool has_work =
        s.queue->headroom() < cap || s.queue->closed();
    if (!has_work) {
        s.state.store(kIdle);
        return;
    }
    if (executed == max_steps)
        preemptions_.fetch_add(1);
    requeues_.fetch_add(1);
    // No wakeup: this worker picks again as soon as it returns, so a
    // notify would only rouse a parked worker to find nothing.
    enqueueLocked(s);
}

void
FleetScheduler::workerLoop()
{
    std::vector<core::Sts> batch;
    batch.reserve(std::max<std::size_t>(cfg_.sched.batch_steps, 1));
    for (;;) {
        Session *s = nullptr;
        {
            std::unique_lock<std::mutex> lock(mu_);
            bool waited = false;
            for (;;) {
                if (done_.load())
                    return;
                s = pickLocked();
                if (s != nullptr)
                    break;
                if (waited)
                    spurious_wakeups_.fetch_add(1);
                parks_.fetch_add(1);
                work_cv_.wait(lock);
                waited = true;
            }
            s->state.store(kRunning);
        }
        double busy_ms = 0.0;
        dispatch(*s, batch, busy_ms);
        busy_ms_.fetch_add(busy_ms);
    }
}

void
FleetScheduler::raiseFeeders()
{
    for (auto &r : readiness_)
        r->raise();
}

void
FleetScheduler::wakeForTeardown()
{
    {
        // Under mu_: a worker checks done_ and parks on work_cv_ in
        // one critical section, so a store outside it could land in
        // between and the notify would find nobody waiting yet.
        std::lock_guard<std::mutex> lock(mu_);
        done_.store(true);
    }
    work_cv_.notify_all();
    raiseFeeders();
}

void
FleetScheduler::maybeReloadModel(double now_ms)
{
    if (cfg_.model_path.empty() ||
        now_ms - last_model_poll_ms_ < cfg_.model_poll_ms)
        return;
    last_model_poll_ms_ = now_ms;
    const auto crc = common::crc32File(cfg_.model_path);
    if (!crc || *crc == model_crc_)
        return;
    std::shared_ptr<const core::TrainedModel> fresh;
    try {
        // Format-sniffing loader: an EDDIEARC model reloads as mmap +
        // sector CRC check + binary decode; a text model takes the
        // legacy parse.
        fresh = std::make_shared<const core::TrainedModel>(
            core::loadModelFile(cfg_.model_path));
    } catch (const std::exception &) {
        // Half-written or corrupt artifact: keep serving the current
        // model; the next poll re-checks the CRC.
        return;
    }
    // A file truncated before its #crc32 trailer still parses (the
    // trailer is optional for legacy models), so require the bytes to
    // be stable across the load: if the CRC moved, a write is in
    // flight — skip, and the next poll sees the finished file.
    const auto crc_after = common::crc32File(cfg_.model_path);
    if (!crc_after || *crc_after != *crc)
        return;
    model_crc_ = *crc;
    {
        std::lock_guard<std::mutex> lock(mu_);
        served_model_ = std::move(fresh);
        model_gen_.fetch_add(1);
    }
    model_reloads_.fetch_add(1);
}

void
FleetScheduler::swapModel(Session &s)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        s.model = served_model_;
        s.model_gen = model_gen_.load();
    }
    // From the live state, not the last cut: no verdict is lost, the
    // queued windows stay queued (no re-seek), and the restart budget
    // is not charged — a reload is an operator action, not a failure.
    CheckpointData ckpt;
    ckpt.monitor = s.monitor->exportState();
    ckpt.source_pos = ckpt.monitor.step_index;
    s.monitor = std::make_unique<core::Monitor>(*s.model, cfg_.monitor);
    s.monitor->restoreState(ckpt.monitor);
    // A full-state submit re-anchors the session's delta chain; the
    // watchdog's next flush makes it durable.
    s.spec.store->submitFull(s.spec.store_shard, std::move(ckpt));
    s.since_ckpt = 0;
    checkpoints_written_.fetch_add(1);
}

std::shared_ptr<const core::TrainedModel>
FleetScheduler::reloadedModel() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return served_model_;
}

std::vector<ShardResult>
FleetScheduler::run()
{
    const double t0 = nowMs();

    // Session setup: monitors, queues, recovery restore, seeded
    // restart mirrors.
    std::vector<CheckpointStore *> stores;
    for (auto &sp : sessions_) {
        Session &s = *sp;
        if (std::find(stores.begin(), stores.end(), s.spec.store) ==
            stores.end())
            stores.push_back(s.spec.store);
        if (s.spec.born_escalated) {
            // Tripped before start (checkpoint rot): born escalated;
            // the result is whatever its last good cut recovered to.
            escalations_.fetch_add(1);
            s.state.store(kEscalated);
            continue;
        }
        s.model = s.spec.tenant->spec().model;
        s.monitor =
            std::make_unique<core::Monitor>(*s.model, cfg_.monitor);
        s.queue = std::make_shared<StsQueue>(s.spec.queue);
        if (s.spec.recovered) {
            const CheckpointData ckpt =
                s.spec.store->mirror(s.spec.store_shard);
            if (s.spec.source->seek(ckpt.source_pos)) {
                s.monitor->restoreState(ckpt.monitor);
                checkpoint_restores_.fetch_add(1);
            }
        }
        // Seed the restart mirror so a failure before the first
        // periodic cut still restores instead of escalating. For a
        // resumed session this re-anchors the recovered chain: the
        // first flush compacts it into a fresh full snapshot.
        CheckpointData seed;
        seed.monitor = s.monitor->exportState();
        seed.source_pos = seed.monitor.step_index;
        s.spec.store->submitFull(s.spec.store_shard, std::move(seed));
        s.wd_seen_ms = t0;
    }
    if (!cfg_.model_path.empty())
        model_crc_ = common::crc32File(cfg_.model_path).value_or(0);
    last_model_poll_ms_ = t0;

    // Each source raises its feeder's Readiness while this run lasts.
    // The guard detaches every source (under the source's own lock)
    // before run() returns, on every path: sources such as a
    // WireListener's outlive the scheduler and keep being woken.
    for (std::size_t f = 0; f < feeder_count_; ++f)
        readiness_.push_back(std::make_unique<Readiness>());
    struct Detach
    {
        std::vector<std::unique_ptr<Session>> &sessions;
        ~Detach()
        {
            for (auto &sp : sessions)
                sp->spec.source->watch(nullptr);
        }
    } detach{sessions_};
    for (auto &sp : sessions_)
        sp->spec.source->watch(
            readiness_[sp->index % feeder_count_].get());

    done_.store(false);
    workers_.reserve(worker_count_);
    for (std::size_t w = 0; w < worker_count_; ++w)
        workers_.emplace_back([this] { workerLoop(); });
    feeders_.reserve(feeder_count_);
    for (std::size_t f = 0; f < feeder_count_; ++f)
        feeders_.emplace_back([this, f] { feederLoop(f); });

    // The calling thread is the watchdog.
    for (;;) {
        sleepMs(cfg_.poll_interval_ms);
        const double now = nowMs();
        if (stop_check_ && stop_check_())
            stop_.store(true);
        if (stop_.load()) {
            raiseFeeders(); // parked feeders exit on stop_
            // Finalize parked sessions; running ones stop themselves.
            for (auto &sp : sessions_) {
                Session &s = *sp;
                bool finalize = false;
                {
                    std::lock_guard<std::mutex> lock(mu_);
                    const int st = s.state.load();
                    if (st == kIdle || st == kReady) {
                        TenantLane &lane =
                            lanes_[s.spec.tenant->index()];
                        auto it = std::find(lane.fifo.begin(),
                                            lane.fifo.end(), &s);
                        if (it != lane.fifo.end())
                            lane.fifo.erase(it);
                        s.state.store(kStopped);
                        finalize = true;
                    }
                }
                if (finalize) {
                    cutDelta(s);
                    s.queue->close();
                }
            }
        } else {
            maybeReloadModel(now);
        }
        bool all_done = true;
        for (auto &sp : sessions_) {
            Session &s = *sp;
            const int st = s.state.load();
            if (isTerminal(st))
                continue;
            all_done = false;
            Tenant &tenant = *s.spec.tenant;
            // Quarantine storm: the stream itself is rotten past the
            // tenant's threshold — the breaker, not the budget.
            const std::size_t storm =
                tenant.spec().breaker.storm_outage_windows;
            if (storm != 0 && !tenant.breaker().tripped() &&
                s.longest_outage.load() >= storm) {
                tenant.breaker().record(FaultClass::QuarantineStorm,
                                        now);
                std::lock_guard<std::mutex> lock(mu_);
                escalateTenantLocked(tenant);
                continue;
            }
            if (st == kFailed) {
                handleFailure(s, now);
                continue;
            }
            if (s.source_dead.load() &&
                (st == kIdle || st == kReady)) {
                // No worker owns it; pull it off the run queue and
                // fail it here (a Running session relinquishes Failed
                // on its own once it drains what it has).
                bool failed = false;
                {
                    std::lock_guard<std::mutex> lock(mu_);
                    const int st2 = s.state.load();
                    if (st2 == kIdle || st2 == kReady) {
                        TenantLane &lane =
                            lanes_[tenant.index()];
                        auto it = std::find(lane.fifo.begin(),
                                            lane.fifo.end(), &s);
                        if (it != lane.fifo.end())
                            lane.fifo.erase(it);
                        s.state.store(kFailed);
                        failed = true;
                    }
                }
                if (failed)
                    handleFailure(s, now);
                continue;
            }
            // Progress-sequence hang detection: refresh while the
            // session advances or rests between steps; a step that
            // holds in_step past the deadline with a frozen sequence
            // is hung — break it with cancel and let the worker
            // relinquish as Failed.
            const std::uint64_t seq = s.progress_seq.load();
            if (seq != s.wd_seen_seq || !s.in_step.load()) {
                s.wd_seen_seq = seq;
                s.wd_seen_ms = now;
            } else if (!s.hang_signaled &&
                       now - s.wd_seen_ms >
                           cfg_.heartbeat_deadline_ms) {
                s.hang_signaled = true;
                s.cancel.store(true);
            }
        }
        // One group commit per store per poll; this thread is the
        // only flusher, so shared-archive stage/commit batches never
        // interleave.
        for (CheckpointStore *store : stores)
            store->flush();
        if (all_done)
            break;
    }
    for (CheckpointStore *store : stores)
        store->flush();

    wakeForTeardown();
    for (std::thread &t : workers_)
        t.join();
    for (std::thread &t : feeders_)
        t.join();
    workers_.clear();
    feeders_.clear();

    std::vector<ShardResult> out(sessions_.size());
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &sp : sessions_) {
            Session &s = *sp;
            s.source_snap = s.spec.source->stats();
            ShardResult &o = out[s.index];
            const int st = s.state.load();
            if (st == kEscalated || !s.monitor) {
                const CheckpointData ckpt =
                    s.spec.store->mirror(s.spec.store_shard);
                o.records = ckpt.monitor.records;
                o.reports = ckpt.monitor.reports;
                o.degraded = ckpt.monitor.degraded;
                o.escalated = true;
            } else {
                o.records = s.monitor->records();
                o.reports = s.monitor->reports();
                o.degraded = s.monitor->degradedStats();
                o.stopped = st == kStopped;
            }
            o.steps = o.records.size();
        }
        wall_ms_ = nowMs() - t0;
    }
    return out;
}

core::ServeStats
FleetScheduler::serveStats() const
{
    core::ServeStats st;
    st.worker_crashes = worker_crashes_.load();
    st.worker_hangs = worker_hangs_.load();
    st.worker_restarts = worker_restarts_.load();
    st.escalations = escalations_.load();
    st.checkpoints_written = checkpoints_written_.load();
    st.checkpoint_restores = checkpoint_restores_.load();
    st.breaker_trips = breaker_trips_.load();
    st.model_reloads = model_reloads_.load();
    st.restart_latency_ms = restart_latency_ms_.load();
    st.queue_wait_ms = queue_wait_ms_.load();
    st.step_ms = step_ms_.load();
    st.checkpoint_ms = checkpoint_ms_.load();
    st.blocked_pushes = feed_defers_.load();
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &sp : sessions_) {
        const Session &s = *sp;
        QueueStats q = s.queue_acc;
        if (s.queue) {
            const QueueStats live = s.queue->stats();
            q.pushed += live.pushed;
            q.popped += live.popped;
            q.dropped_oldest += live.dropped_oldest;
            q.blocked_pushes += live.blocked_pushes;
            q.spurious_wakeups += live.spurious_wakeups;
            q.max_depth = std::max(q.max_depth, live.max_depth);
        }
        st.delivered += q.pushed;
        st.dropped_oldest += q.dropped_oldest;
        st.blocked_pushes += q.blocked_pushes;
        st.queue_spurious_wakeups += q.spurious_wakeups;
        st.processed += s.processed.load();
        st.source_stalls += s.source_snap.stalls;
        st.source_errors += s.source_snap.errors;
        st.source_retries += s.source_snap.retries;
        st.source_give_ups += s.source_snap.give_ups;
    }
    return st;
}

SchedulerStats
FleetScheduler::schedulerStats() const
{
    SchedulerStats st;
    st.workers = worker_count_;
    st.feeders = feeder_count_;
    st.dispatches = dispatches_.load();
    st.steps = steps_.load();
    st.requeues = requeues_.load();
    st.preemptions = preemptions_.load();
    st.parks = parks_.load();
    st.spurious_wakeups = spurious_wakeups_.load();
    st.feeder_naps = feeder_naps_.load();
    st.throttle_skips = throttle_skips_.load();
    st.busy_ms = busy_ms_.load();
    std::lock_guard<std::mutex> lock(mu_);
    st.sessions = sessions_.size();
    st.min_deficit_steps = min_deficit_;
    st.wall_ms = wall_ms_;
    return st;
}

} // namespace eddie::serve

#include "scheduler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
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

/** Session lifecycle states (stored in an atomic<int>). */
enum SessionState : int
{
    kIdle = 0,  ///< parked on a Pending pull or the rate quota
    kReady,     ///< in its tenant's fifo, waiting for a worker
    kRunning,   ///< a worker is executing a batch
    kFailed,    ///< relinquished after crash/hang/dead source
    kEof,       ///< source exhausted, final cut taken
    kStopped,   ///< graceful stop before EOF
    kEscalated, ///< tenant breaker / budget isolation
};

bool
isTerminal(int st)
{
    return st == kEof || st == kStopped || st == kEscalated;
}

/** Deficit replenished per round for the largest-weight tenant;
 *  other tenants get a proportional share (min 1 step). */
constexpr double kQuantumSteps = 32.0;

/** A duration knob must be a finite, non-negative millisecond count. */
void
checkTime(double ms, const char *field)
{
    if (!std::isfinite(ms) || ms < 0.0)
        throw ServeConfigError(field, "must be finite and >= 0");
}

} // namespace

void
ServeConfig::validate() const
{
    checkTime(watchdog.heartbeat_deadline_ms,
              "watchdog.heartbeat_deadline_ms");
    checkTime(watchdog.poll_interval_ms, "watchdog.poll_interval_ms");
    checkTime(model_poll_ms, "model_poll_ms");
    if (watchdog.heartbeat_deadline_ms <= watchdog.poll_interval_ms)
        throw ServeConfigError("watchdog.heartbeat_deadline_ms",
                               "must exceed watchdog.poll_interval_ms");
    if (checkpoint_archive && checkpoint_path.empty())
        throw ServeConfigError("checkpoint_archive",
                               "needs checkpoint_path");
    if (resume && checkpoint_path.empty())
        throw ServeConfigError("resume", "needs checkpoint_path");
    if (full_snapshot_every == 0)
        throw ServeConfigError("full_snapshot_every", "must be >= 1");
    if (scheduler.batch_steps == 0)
        throw ServeConfigError("scheduler.batch_steps", "must be >= 1");
}

/** One multiplexed session. No thread of its own: workers visit it by
 *  run-queue pick, the watchdog by scan, and its source wakes it
 *  through raise(). */
struct FleetScheduler::Session final : Readiness
{
    FleetScheduler *engine = nullptr;
    std::size_t index = 0;
    SchedulerSessionSpec spec;

    std::shared_ptr<const core::TrainedModel> model;
    std::unique_ptr<core::Monitor> monitor;
    /** Pulled window the tenant's rate quota has not admitted yet. */
    std::optional<core::Sts> held;
    SourceStats source_snap; ///< guarded by FleetScheduler::mu_

    std::atomic<int> state{kIdle};
    // Park bookkeeping, guarded by FleetScheduler::mu_.
    /** Parked on a Pending pull (only a raise wakes it); false while
     *  parked on the rate quota (only the watchdog wakes it). */
    bool parked_pending = false;
    /** When the watchdog re-enqueues a session parked on its quota. */
    double due_ms = 0.0;
    /** A raise that found the session not parked on a Pending pull;
     *  cleared when a worker picks it. */
    bool raised = false;

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
    /** Windows the rate quota admitted to the monitor (a restart's
     *  replay counts again). */
    std::atomic<std::uint64_t> delivered{0};
    /** Live longest-quarantine-run for the storm check. */
    std::atomic<std::uint64_t> longest_outage{0};

    // Watchdog-only hang-tracking state.
    std::uint64_t wd_seen_seq = 0;
    double wd_seen_ms = 0.0;
    bool hang_signaled = false;

    // Owner-only: touched by the worker running the session (Running
    // excludes all others) or by the watchdog while it is Failed. The
    // source and `held` belong to the owner too.
    /** Steps since the last delta cut. */
    std::size_t since_ckpt = 0;
    /** Reload generation of this session's model (its tenant lane's
     *  model_gen when it took it). */
    std::uint64_t model_gen = 0;

    void raise() override { engine->raise(*this); }
};

/** Level-1 run-queue entry: one tenant's runnable sessions plus its
 *  DRR account and its served model. Guarded by mu_ except where
 *  noted. */
struct FleetScheduler::TenantLane
{
    Tenant *tenant = nullptr;
    /** The tenant's model: its spec's until a hot reload of
     *  TenantSpec::model_path replaces it. */
    std::shared_ptr<const core::TrainedModel> model;
    /** Bumped (under mu_) per reload; a session whose own generation
     *  lags swaps before its next step. */
    std::atomic<std::uint64_t> model_gen{0};
    /** CRC-32 of the model file last loaded (watchdog-only). */
    std::uint32_t model_crc = 0;
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

FleetScheduler::FleetScheduler(ServeConfig cfg,
                               std::vector<SchedulerSessionSpec> specs,
                               std::vector<Tenant *> tenants,
                               std::atomic<bool> &stop)
    : cfg_(std::move(cfg)), tenants_(std::move(tenants)), stop_(stop),
      lanes_(tenants_.size())
{
    const std::size_t hw =
        std::max(1u, std::thread::hardware_concurrency());
    worker_count_ = cfg_.scheduler.workers != 0
                        ? cfg_.scheduler.workers
                        : std::clamp<std::size_t>(specs.size(), 1, hw);
    // DRR weight = the tenant's STS/s quota; unlimited tenants (0)
    // weigh in at the largest configured quota so a quota is never a
    // way to out-schedule an uncapped neighbor. All-unlimited fleets
    // degenerate to equal quanta.
    double max_rate = 0.0;
    for (const Tenant *t : tenants_)
        max_rate = std::max(max_rate, t->spec().quota.sts_per_s);
    if (max_rate <= 0.0)
        max_rate = 1.0;
    for (Tenant *t : tenants_) {
        TenantLane &lane = lanes_[t->index()];
        lane.tenant = t;
        lane.model = t->spec().model;
        if (!t->spec().model_path.empty())
            lane.model_crc =
                common::crc32File(t->spec().model_path).value_or(0);
        const double rate = t->spec().quota.sts_per_s;
        const double w = rate > 0.0 ? rate : max_rate;
        lane.quantum = std::max(1.0, kQuantumSteps * w / max_rate);
    }
    sessions_.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        auto s = std::make_unique<Session>();
        s->engine = this;
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
            double(std::max<std::size_t>(cfg_.scheduler.batch_steps, 1));
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
        s.state.store(kEscalated);
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

    // The store mirror is the session's newest cut: the mirror as of
    // the last flush plus a replay of the deltas queued since, none
    // of it waiting on disk. A Failed session has no worker, so this
    // thread owns its source: seek replays every window after the
    // cut, the held one included.
    const CheckpointData ckpt =
        s.spec.store->mirror(s.spec.store_shard);
    if (!tenant.budget().allow(now_ms) ||
        !s.spec.source->seek(ckpt.source_pos)) {
        escalations_.fetch_add(1);
        s.state.store(kEscalated);
        return;
    }
    s.held.reset();
    s.cancel.store(false);
    s.crashed.store(false);
    s.source_dead.store(false);
    s.in_step.store(false);
    s.hang_signaled = false;
    s.wd_seen_seq = s.progress_seq.load();
    s.wd_seen_ms = nowMs();
    s.since_ckpt = 0;
    s.monitor = std::make_unique<core::Monitor>(*s.model, cfg_.monitor);
    s.monitor->restoreState(ckpt.monitor);
    {
        std::lock_guard<std::mutex> lock(mu_);
        enqueueLocked(s);
    }
    work_cv_.notify_one();
    checkpoint_restores_.fetch_add(1);
    worker_restarts_.fetch_add(1);
    restart_latency_ms_.fetch_add(nowMs() - now_ms);
}

void
FleetScheduler::raise(Session &s)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (s.state.load() != kIdle || !s.parked_pending) {
            // The owner (or a throttle wait) decides what happens
            // next; a Pending pull that raced this raise sees the
            // latch at its park and requeues instead.
            s.raised = true;
            return;
        }
        enqueueLocked(s);
    }
    work_cv_.notify_one();
}

void
FleetScheduler::wakeDueSessions(double now_ms)
{
    std::size_t woken = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        earliest_due_ms_ = std::numeric_limits<double>::infinity();
        for (auto &sp : sessions_) {
            Session &s = *sp;
            // Only quota waits come due; a Pending park waits for its
            // source's raise.
            if (s.state.load() != kIdle || s.parked_pending)
                continue;
            if (now_ms < s.due_ms) {
                earliest_due_ms_ = std::min(earliest_due_ms_, s.due_ms);
                continue;
            }
            enqueueLocked(s);
            ++woken;
        }
    }
    for (woken = std::min(woken, worker_count_); woken > 0; --woken)
        work_cv_.notify_one();
}

void
FleetScheduler::waitForPoll()
{
    const double poll_end = nowMs() + cfg_.watchdog.poll_interval_ms;
    for (;;) {
        double now = 0.0;
        {
            std::unique_lock<std::mutex> lock(mu_);
            for (;;) {
                now = nowMs();
                // Stopping, the poll finalizes parked sessions instead.
                watchdog_wake_ms_ =
                    stop_.load() ? poll_end
                                 : std::min(poll_end, earliest_due_ms_);
                if (now >= watchdog_wake_ms_)
                    break;
                watchdog_cv_.wait_for(
                    lock, std::chrono::duration<double, std::milli>(
                              watchdog_wake_ms_ - now));
            }
        }
        if (now >= poll_end)
            return;
        // A throttled session came due between polls.
        wakeDueSessions(now);
    }
}

void
FleetScheduler::dispatch(Session &s, double &busy_ms)
{
    Tenant &tenant = *s.spec.tenant;
    if (s.model_gen != lanes_[tenant.index()].model_gen.load())
        swapModel(s);
    const std::size_t max_rounds =
        std::max<std::size_t>(cfg_.scheduler.batch_steps, 1);
    dispatches_.fetch_add(1);

    // Each interval between two clock reads is pull, step or cut time.
    const double t0 = nowMs();
    double t = t0, pull_ms = 0.0, work_ms = 0.0, cut_ms = 0.0;
    const auto cut = [&] {
        cutDelta(s);
        const double t_cut = nowMs();
        cut_ms += t_cut - t;
        t = t_cut;
    };
    std::size_t executed = 0, admitted = 0;
    // -1 = the rounds ran out while the source still delivered.
    int next_state = -1;
    bool park_pending = false;
    double due_ms = 0.0;

    for (std::size_t round = 0; round < max_rounds; ++round) {
        if (s.cancel.load()) {
            next_state = kFailed;
            break;
        }
        if (stop_.load()) {
            cut();
            next_state = kStopped;
            break;
        }
        if (!s.held) {
            Pull pull = s.spec.source->next();
            const double t_pull = nowMs();
            pull_ms += t_pull - t;
            t = t_pull;
            if (pull.status == PullStatus::Pending) {
                // Parks until the source raises this session.
                next_state = kIdle;
                park_pending = true;
                break;
            }
            if (pull.status == PullStatus::EndOfStream) {
                // The final cut rides the watchdog's group commit.
                cut();
                next_state = kEof;
                break;
            }
            if (pull.status != PullStatus::Ready) {
                // Stalled or TransientError past the retry layer: the
                // watchdog restarts the session.
                s.source_dead.store(true);
                next_state = kFailed;
                break;
            }
            s.held = std::move(pull.sts);
        }
        // Rate quota on a pulled window, so an idle pull charges
        // nothing: Throttle holds it back without reordering or
        // losing windows (verdicts stay bit-identical); Shed drops
        // it, counted by the tenant.
        double wait_ms = 0.0;
        const RateDecision d = tenant.admitWindow(t, wait_ms);
        if (d == RateDecision::Throttle) {
            throttle_skips_.fetch_add(1);
            next_state = kIdle;
            due_ms = t + wait_ms;
            break;
        }
        if (d == RateDecision::Shed) {
            s.held.reset();
            continue;
        }
        ++admitted;
        s.in_step.store(true);
        try {
            if (hook_)
                hook_(s.index, tenant.id(), s.monitor->records().size(),
                      s.cancel);
            s.monitor->step(*s.held);
        } catch (...) {
            s.in_step.store(false);
            s.crashed.store(true);
            next_state = kFailed;
            break;
        }
        s.held.reset();
        s.in_step.store(false);
        const double t_step = nowMs();
        work_ms += t_step - t;
        t = t_step;
        s.progress_seq.fetch_add(1);
        ++executed;
        s.longest_outage.store(s.monitor->degradedStats().longest_outage);
        if (cfg_.checkpoint_interval != 0 &&
            ++s.since_ckpt >= cfg_.checkpoint_interval) {
            s.since_ckpt = 0;
            cut();
        }
    }

    s.delivered.fetch_add(admitted);
    steps_.fetch_add(executed);
    pull_ms_.fetch_add(pull_ms);
    step_ms_.fetch_add(work_ms);
    checkpoint_ms_.fetch_add(cut_ms);
    busy_ms += t - t0;

    // Relinquish: refund the unexecuted part of the pick-time batch
    // reservation and hand the session to its next owner (run queue,
    // its source's raise, or the watchdog).
    std::lock_guard<std::mutex> lock(mu_);
    TenantLane &lane = lanes_[tenant.index()];
    lane.deficit += static_cast<double>(max_rounds - executed);

    if (lane.escalated) {
        // Tenant was isolated while this batch ran.
        escalations_.fetch_add(1);
        s.state.store(kEscalated);
        return;
    }
    if (next_state == kEof || next_state == kStopped ||
        next_state == kFailed) {
        s.state.store(next_state); // Failed: the watchdog takes over
        return;
    }
    // A raise since the pick may have come after the Pending pull, so
    // it requeues instead of parking. The raise takes mu_ too, so it
    // either set the latch before this check or finds the park.
    if (next_state == kIdle && !(park_pending && s.raised)) {
        s.parked_pending = park_pending;
        s.state.store(kIdle);
        if (park_pending)
            return; // its source's raise is the only wakeup
        s.due_ms = due_ms;
        // A quota wait that ends before the watchdog's next wake moves
        // that wake up, so the tenant's rate holds at any burst.
        if (due_ms < earliest_due_ms_) {
            earliest_due_ms_ = due_ms;
            if (due_ms < watchdog_wake_ms_)
                watchdog_cv_.notify_one();
        }
        return;
    }
    if (next_state == -1)
        preemptions_.fetch_add(1);
    requeues_.fetch_add(1);
    // No wakeup: this worker picks again as soon as it returns, so a
    // notify would only rouse a parked worker to find nothing.
    enqueueLocked(s);
}

void
FleetScheduler::workerLoop()
{
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
            s->raised = false;
        }
        double busy_ms = 0.0;
        dispatch(*s, busy_ms);
        busy_ms_.fetch_add(busy_ms);
    }
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
}

void
FleetScheduler::pollModelFiles(double now_ms)
{
    if (now_ms - last_model_poll_ms_ < cfg_.model_poll_ms)
        return;
    last_model_poll_ms_ = now_ms;
    for (TenantLane &lane : lanes_) {
        const std::string &path = lane.tenant->spec().model_path;
        if (path.empty())
            continue;
        const auto crc = common::crc32File(path);
        if (!crc || *crc == lane.model_crc)
            continue;
        std::shared_ptr<const core::TrainedModel> fresh;
        try {
            // Read-only load (sector CRC check + binary decode): a
            // file still being written is never cut short by this read.
            fresh = std::make_shared<const core::TrainedModel>(
                core::loadModelFile(path));
        } catch (const std::exception &) {
            // Half-written or corrupt artifact: keep serving the
            // current model; the next poll re-checks the CRC.
            continue;
        }
        // The loaded bytes must be the ones the CRC covers, or the
        // next poll would count the same model again: if the CRC
        // moved, a write is in flight — skip, and the next poll sees
        // the finished file.
        const auto crc_after = common::crc32File(path);
        if (!crc_after || *crc_after != *crc)
            continue;
        lane.model_crc = *crc;
        {
            std::lock_guard<std::mutex> lock(mu_);
            lane.model = std::move(fresh);
            lane.model_gen.fetch_add(1);
        }
        model_reloads_.fetch_add(1);
    }
}

void
FleetScheduler::swapModel(Session &s)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        const TenantLane &lane = lanes_[s.spec.tenant->index()];
        s.model = lane.model;
        s.model_gen = lane.model_gen.load();
    }
    // From the live state, not the last cut: no verdict is lost, a
    // held window stays held (no re-seek), and the restart budget is
    // not charged — a reload is an operator action, not a failure.
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
FleetScheduler::tenantModel(std::size_t tenant) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return lanes_[tenant].model;
}

std::vector<ShardResult>
FleetScheduler::run()
{
    const double t0 = nowMs();

    // Session setup: monitors, recovery restore, seeded restart
    // mirrors.
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
    last_model_poll_ms_ = t0;

    // Every live session starts runnable: its first dispatch pulls.
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &sp : sessions_)
            if (sp->state.load() == kIdle)
                enqueueLocked(*sp);
    }
    // Each session is its own source's wake target while this run
    // lasts (attached after the enqueue, so an early raise only
    // latches). The guard detaches every source (under the source's
    // own lock) before run() returns, on every path: sources such as
    // a WireListener's outlive the scheduler and keep being woken.
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
        sp->spec.source->watch(sp.get());

    done_.store(false);
    workers_.reserve(worker_count_);
    for (std::size_t w = 0; w < worker_count_; ++w)
        workers_.emplace_back([this] { workerLoop(); });

    // The calling thread is the watchdog.
    for (;;) {
        waitForPoll();
        const double now = nowMs();
        if (stop_check_ && stop_check_())
            stop_.store(true);
        if (stop_.load()) {
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
                if (finalize)
                    cutDelta(s);
            }
        } else {
            pollModelFiles(now);
            wakeDueSessions(now);
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
                           cfg_.watchdog.heartbeat_deadline_ms) {
                s.hang_signaled = true;
                s.cancel.store(true);
            }
        }
        // One group commit per store per poll; this thread is the
        // only flusher. The last, once every session has ended, lands
        // the final cuts even while failed writes back off.
        for (CheckpointStore *store : stores)
            store->flush(all_done);
        if (all_done)
            break;
    }

    wakeForTeardown();
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();

    // Sources are read outside mu_ (a source may raise under its own
    // lock, and the raise takes mu_).
    std::vector<SourceStats> source_stats;
    for (auto &sp : sessions_)
        source_stats.push_back(sp->spec.source->stats());
    std::vector<ShardResult> out(sessions_.size());
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &sp : sessions_) {
            Session &s = *sp;
            s.source_snap = source_stats[s.index];
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
    st.queue_wait_ms = pull_ms_.load();
    st.step_ms = step_ms_.load();
    st.checkpoint_ms = checkpoint_ms_.load();
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &sp : sessions_) {
        const Session &s = *sp;
        st.delivered += s.delivered.load();
        st.processed += s.progress_seq.load();
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
    st.dispatches = dispatches_.load();
    st.steps = steps_.load();
    st.requeues = requeues_.load();
    st.preemptions = preemptions_.load();
    st.parks = parks_.load();
    st.spurious_wakeups = spurious_wakeups_.load();
    st.throttle_skips = throttle_skips_.load();
    st.busy_ms = busy_ms_.load();
    std::lock_guard<std::mutex> lock(mu_);
    st.sessions = sessions_.size();
    st.min_deficit_steps = min_deficit_;
    st.wall_ms = wall_ms_;
    return st;
}

} // namespace eddie::serve

#include "monitor.h"

#include <algorithm>
#include <string>

#include "errors.h"
#include "stats/ks.h"
#include "stats/mwu.h"

namespace eddie::core
{

Monitor::Monitor(const TrainedModel &model, const MonitorConfig &cfg)
    : model_(model), cfg_(cfg), current_(model.entry_region),
      gate_(model, cfg.quality)
{
    max_history_ = 8;
    std::size_t width = 1;
    for (const auto &r : model_.regions) {
        max_history_ = std::max(max_history_, r.group_n);
        width = std::max(width, r.ref.size());
    }
    history_.reset(max_history_, width, model_.sentinel);
    scratch_.reserve(max_history_);
    if (current_ >= model_.regions.size())
        current_ = 0;

    // Presorted reference views: share the model's finalized layout;
    // build a private copy only for regions a hand-assembled model
    // left unfinalized. In the trained/loaded path every Monitor in a
    // batch reads the same immutable buffers (no per-run model copy).
    sorted_.resize(model_.regions.size());
    own_sorted_.resize(model_.regions.size());
    for (std::size_t r = 0; r < model_.regions.size(); ++r) {
        const RegionModel &rm = model_.regions[r];
        if (rm.sorted.numRanks() == rm.ref.size()) {
            sorted_[r] = &rm.sorted;
        } else {
            own_sorted_[r].build(rm.ref);
            sorted_[r] = &own_sorted_[r];
        }
    }

    candidates_.resize(model_.regions.size());
    for (std::size_t r = 0; r < model_.regions.size(); ++r) {
        auto &cand = candidates_[r];
        for (std::size_t s : model_.regions[r].succs) {
            if (s != r &&
                std::find(cand.begin(), cand.end(), s) == cand.end()) {
                cand.push_back(s);
            }
            for (std::size_t s2 : model_.regions[s].succs) {
                if (s2 != r && std::find(cand.begin(), cand.end(),
                                         s2) == cand.end()) {
                    cand.push_back(s2);
                }
            }
        }
    }
}

MonitorState
Monitor::exportState() const
{
    MonitorState s;
    s.current = current_;
    s.steps_since_change = steps_since_change_;
    s.anomaly_count = anomaly_count_;
    s.step_index = step_index_;
    s.test_calls = test_calls_;
    s.outage_len = outage_len_;
    s.resync_pending = resync_pending_;
    s.history.resize(history_.size());
    for (std::size_t i = 0; i < history_.size(); ++i) {
        s.history[i].resize(history_.width());
        for (std::size_t p = 0; p < history_.width(); ++p)
            s.history[i][p] = history_.at(i, p);
    }
    s.degraded = degraded_;
    s.gate_energies = gate_.exportEnergies();
    s.reports = reports_;
    s.records = records_;
    return s;
}

void
Monitor::restoreState(const MonitorState &state)
{
    current_ = state.current < model_.regions.size() ? state.current
                                                     : 0;
    steps_since_change_ = state.steps_since_change;
    anomaly_count_ = state.anomaly_count;
    step_index_ = state.step_index;
    test_calls_ = state.test_calls;
    outage_len_ = state.outage_len;
    resync_pending_ = state.resync_pending;
    history_.clear();
    for (const auto &row : state.history)
        history_.push(row);
    degraded_ = state.degraded;
    gate_.restoreEnergies(state.gate_energies);
    reports_ = state.reports;
    records_ = state.records;
    resetDeltaBaseline();
}

void
Monitor::resetDeltaBaseline()
{
    delta_base_step_ = step_index_;
    delta_base_records_ = records_.size();
    delta_base_reports_ = reports_.size();
    delta_base_pushes_ = history_.pushes();
    retro_low_water_ = std::size_t(-1);
}

MonitorStateDelta
Monitor::exportDelta()
{
    MonitorStateDelta d;
    d.base_step = delta_base_step_;
    d.step = step_index_;
    d.current = current_;
    d.steps_since_change = steps_since_change_;
    d.anomaly_count = anomaly_count_;
    d.test_calls = test_calls_;
    d.outage_len = outage_len_;
    d.resync_pending = resync_pending_;
    d.degraded = degraded_;
    d.gate_energies = gate_.exportEnergies();

    d.history_pushes = history_.pushes();
    d.history_count = history_.size();
    // Rows appended since the base cut that are still resident: when
    // the interval pushed a ring-full or more (or clear() emptied the
    // ring mid-interval), every resident row is new and the tail is a
    // full replacement; otherwise it is a pure append and apply
    // evicts from the front down to history_count.
    const std::uint64_t appended = history_.pushes() - delta_base_pushes_;
    const std::size_t tail_n = std::size_t(
        std::min<std::uint64_t>(appended, history_.size()));
    d.history_tail.resize(tail_n);
    for (std::size_t i = 0; i < tail_n; ++i) {
        auto &row = d.history_tail[i];
        row.resize(history_.width());
        const std::size_t src = history_.size() - tail_n + i;
        for (std::size_t p = 0; p < history_.width(); ++p)
            row[p] = history_.at(src, p);
    }

    d.records_from = std::min(delta_base_records_, retro_low_water_);
    d.records.assign(records_.begin() + std::ptrdiff_t(d.records_from),
                     records_.end());
    d.reports_from = delta_base_reports_;
    d.reports.assign(reports_.begin() + std::ptrdiff_t(d.reports_from),
                     reports_.end());

    resetDeltaBaseline();
    return d;
}

void
Monitor::reset()
{
    current_ = model_.entry_region < model_.regions.size()
                   ? model_.entry_region
                   : 0;
    steps_since_change_ = 0;
    anomaly_count_ = 0;
    step_index_ = 0;
    test_calls_ = 0;
    outage_len_ = 0;
    resync_pending_ = false;
    history_.clear();
    reports_.clear();
    records_.clear();
    degraded_ = DegradedStats{};
    gate_.reset();
    resetDeltaBaseline();
}

void
applyDelta(MonitorState &state, const MonitorStateDelta &delta)
{
    // Every check runs before the first write, so a delta that does
    // not apply leaves @p state as it was.
    if (delta.base_step != state.step_index)
        throw FormatError("monitor delta: chain gap (base " +
                          std::to_string(delta.base_step) +
                          ", state at " +
                          std::to_string(state.step_index) + ")");
    const bool replace = delta.history_tail.size() == delta.history_count;
    if (delta.history_tail.size() > delta.history_count)
        throw FormatError("monitor delta: tail exceeds ring count");
    if (!replace && state.history.size() + delta.history_tail.size() <
                        delta.history_count)
        throw FormatError("monitor delta: ring underflow");
    if (delta.records_from > state.records.size())
        throw FormatError("monitor delta: record rewrite past end");
    // One record per step, always — a cheap structural check that
    // catches mismatched chains the scalars alone would miss.
    if (delta.records_from + delta.records.size() != delta.step)
        throw FormatError("monitor delta: record count != step index");
    if (delta.reports_from > state.reports.size())
        throw FormatError("monitor delta: report rewrite past end");

    state.current = delta.current;
    state.steps_since_change = delta.steps_since_change;
    state.anomaly_count = delta.anomaly_count;
    state.step_index = delta.step;
    state.test_calls = delta.test_calls;
    state.outage_len = delta.outage_len;
    state.resync_pending = delta.resync_pending;
    state.degraded = delta.degraded;
    state.gate_energies = delta.gate_energies;

    if (replace) {
        // Full replacement: the interval refilled (or cleared) the
        // whole ring.
        state.history = delta.history_tail;
    } else {
        for (const auto &row : delta.history_tail)
            state.history.push_back(row);
        state.history.erase(
            state.history.begin(),
            state.history.end() - std::ptrdiff_t(delta.history_count));
    }

    state.records.resize(std::size_t(delta.records_from));
    state.records.insert(state.records.end(), delta.records.begin(),
                         delta.records.end());

    state.reports.resize(std::size_t(delta.reports_from));
    state.reports.insert(state.reports.end(), delta.reports.begin(),
                         delta.reports.end());
}

void
Monitor::gatherGroup(std::size_t n, std::size_t rank)
{
    const std::size_t have = history_.size();
    scratch_.resize(n);
    for (std::size_t k = 0; k < n; ++k)
        scratch_[k] = history_.at(have - n + k, rank);
}

bool
Monitor::testRank(std::span<const double> ref, double &d)
{
    ++test_calls_;
    std::sort(scratch_.begin(), scratch_.end());
    if (cfg_.test == TestKind::KolmogorovSmirnov) {
        d = stats::ksStatisticSorted(ref, scratch_);
        return d > stats::ksCritical(ref.size(), scratch_.size(),
                                     model_.alpha);
    }
    const auto res = stats::mwuTestSorted(ref, scratch_, model_.alpha);
    d = 1.0 - res.p_value; // "distance" proxy for handoff
    return res.reject;
}

Monitor::Fit
Monitor::regionFit(std::size_t region, std::size_t window)
{
    Fit fit;
    const RegionModel &rm = model_.regions[region];
    if (!rm.trained || rm.num_peaks == 0)
        return fit; // unverifiable: neither rejects nor accepts
    const std::size_t n =
        window > 0 ? std::min(window, rm.group_n) : rm.group_n;
    if (history_.size() < n)
        return fit;
    fit.testable = true;

    const SortedReference &sorted = *sorted_[region];
    double d_sum = 0.0;
    for (std::size_t p = 0; p < rm.num_peaks; ++p) {
        gatherGroup(n, p);
        double d;
        if (testRank(sorted.rank(p), d))
            ++fit.rejected_ranks;
        else
            ++fit.accepted_ranks;
        d_sum += d;
    }
    fit.mean_d = d_sum / double(rm.num_peaks);
    fit.rejects = fit.rejected_ranks >= std::max<std::size_t>(
        1, rm.num_peaks / cfg_.reject_peak_divisor);
    fit.accepts = fit.accepted_ranks >= std::max<std::size_t>(
        1, rm.num_peaks / cfg_.change_peak_divisor);

    // Guard ranks beyond num_peaks (where this region's training
    // mostly saw no peak): a window carrying structure there does
    // not belong to this region, however broad the tested ranks'
    // distributions are. Prevents peak-poor regions from absorbing
    // anomalous windows.
    if (fit.accepts) {
        for (std::size_t p = rm.num_peaks; p < sorted.numRanks();
             ++p) {
            gatherGroup(n, p);
            double d;
            if (testRank(sorted.rank(p), d)) {
                fit.accepts = false;
                break;
            }
        }
    }
    return fit;
}

void
Monitor::quarantine(WindowQuality q, StepRecord &rec)
{
    rec.degraded = true;
    ++degraded_.quarantined;
    ++degraded_.by_kind[std::size_t(q)];
    // A quarantined window breaks any anomaly streak: the channel,
    // not the program, explains the rejections around it.
    anomaly_count_ = 0;
    ++outage_len_;
    degraded_.longest_outage =
        std::max(degraded_.longest_outage, outage_len_);
    if (outage_len_ == cfg_.quality.resync_outage) {
        // The history now predates the outage and would misjudge
        // whatever region execution is in when signal returns.
        ++degraded_.outages;
        history_.clear();
        resync_pending_ = true;
    }
}

bool
Monitor::resync()
{
    ++degraded_.resyncs;
    resync_pending_ = false;
    // Execution moved on during the outage, so the successor map is
    // stale: scan every trained region and re-lock to the best
    // accepting fit over the fresh window.
    std::size_t best = model_.regions.size();
    double best_d = 1.0;
    for (std::size_t r = 0; r < model_.regions.size(); ++r) {
        const Fit f = regionFit(r, cfg_.transition_window);
        if (f.testable && f.accepts && f.mean_d < best_d) {
            best = r;
            best_d = f.mean_d;
        }
    }
    if (best >= model_.regions.size() || best == current_)
        return false; // none fits better; stay and resume normally
    current_ = best;
    steps_since_change_ = 0;
    return true;
}

StepRecord
Monitor::step(const Sts &sts)
{
    StepRecord rec;
    rec.region = current_;

    const WindowQuality q = gate_.assess(sts, current_);
    if (q != WindowQuality::Good) {
        quarantine(q, rec);
        records_.push_back(rec);
        ++step_index_;
        return rec;
    }
    outage_len_ = 0;

    history_.push(sts.peak_freqs);
    ++steps_since_change_;

    if (resync_pending_ &&
        history_.size() >= cfg_.transition_window) {
        rec.transitioned = resync();
        rec.region = current_;
        records_.push_back(rec);
        ++step_index_;
        return rec;
    }

    const Fit cur = regionFit(current_);
    rec.tested = cur.testable;
    rec.rejected = cur.testable && cur.rejects;

    if (!rec.rejected) {
        anomaly_count_ = 0;
        // Better-fit handoff (extension over Algorithm 1, see
        // monitor.h): diffuse regions with broad reference
        // distributions may keep "accepting" after execution has
        // moved on — and untrained regions cannot reject at all.
        // Hand off when a successor fits decisively better (or at
        // all, when the current region is unverifiable).
        // While a *trained* region's window is still warming up
        // (history < n), withhold judgement; only hand off from
        // regions that can never be tested (untrained) or that
        // accepted outright.
        const bool may_handoff = cur.testable ||
            !model_.regions[current_].trained;
        if (cfg_.enable_handoff && may_handoff &&
            steps_since_change_ >= cfg_.transition_window) {
            const double cur_d = cur.testable ? cur.mean_d : 1.0;
            const std::size_t cur_peaks = cur.testable ?
                model_.regions[current_].num_peaks : 0;
            std::size_t best = model_.regions.size();
            double best_d = cur_d;
            for (std::size_t j : candidates_[current_]) {
                // A peak-poor neighbor trivially achieves a small
                // mean distance; only hand off to regions with
                // comparable spectral richness. (The reject path
                // below has no such restriction.)
                if (model_.regions[j].num_peaks * 2 < cur_peaks)
                    continue;
                const Fit f = regionFit(j, cfg_.transition_window);
                if (f.testable && f.accepts &&
                    f.mean_d < cfg_.handoff_ratio * cur_d &&
                    f.mean_d < best_d) {
                    best = j;
                    best_d = f.mean_d;
                }
            }
            if (best < model_.regions.size()) {
                current_ = best;
                steps_since_change_ = 0;
                rec.transitioned = true;
            }
        }
    } else {
        // Does a successor explain the window instead? (Not during
        // the dwell right after a change — the window is still
        // refilling and a chance acceptance would wedge the monitor
        // in the wrong state.)
        std::size_t best_region = model_.regions.size();
        std::size_t best_accepted = 0;
        double best_cand_d = 1.0;
        if (steps_since_change_ >= cfg_.transition_window) {
            for (std::size_t j : candidates_[current_]) {
                const Fit f = regionFit(j, cfg_.transition_window);
                if (f.testable && f.accepts &&
                    f.accepted_ranks > best_accepted) {
                    best_accepted = f.accepted_ranks;
                    best_region = j;
                    best_cand_d = f.mean_d;
                }
            }
        }
        // Fresh-window check of the current region: a full-window
        // rejection whose newest STSs still fit is a border effect
        // or slow drift, not an anomaly and not a region change.
        // (Bin-quantized injected peaks fail even the fresh test.)
        const Fit fresh = regionFit(current_, cfg_.transition_window);
        const bool fresh_ok = fresh.testable && !fresh.rejects;
        // A region change must be decisive: the candidate's fresh
        // fit has to clearly beat the current region's, or a
        // marginal spectral overlap between neighbors would cause
        // spurious hops.
        const bool decisive = !fresh.testable ||
            best_cand_d < cfg_.handoff_ratio * std::max(fresh.mean_d,
                                                        1e-9);
        if (best_region < model_.regions.size() && decisive) {
            if (fresh_ok) {
                anomaly_count_ = 0; // stay: drift, not a change
            } else {
                current_ = best_region;
                anomaly_count_ = 0;
                steps_since_change_ = 0;
                rec.transitioned = true;
            }
        } else if (fresh_ok) {
            anomaly_count_ = 0; // border/drift tolerance
        } else {
            ++anomaly_count_;
            if (anomaly_count_ > cfg_.report_threshold) {
                AnomalyReport rep;
                rep.step = step_index_;
                rep.time = sts.t_end;
                rep.region = current_;
                reports_.push_back(rep);
                // Mark the whole streak as reported.
                rec.reported = true;
                const std::size_t streak = anomaly_count_ - 1;
                for (std::size_t k = 0;
                     k < streak && k < records_.size(); ++k) {
                    records_[records_.size() - 1 - k].reported = true;
                }
                // The streak may reach back before the last delta
                // cut; remember the lowest rewritten index so
                // exportDelta() re-sends those records.
                const std::size_t low =
                    records_.size() - std::min(streak, records_.size());
                retro_low_water_ = std::min(retro_low_water_, low);
                anomaly_count_ = 0;
            }
        }
    }

    records_.push_back(rec);
    ++step_index_;
    return rec;
}

} // namespace eddie::core

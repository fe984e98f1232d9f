#include "wire_source.h"

#include <chrono>

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

/** Accounting size of one window: the struct plus its peak list. */
std::size_t
stsBytes(const core::Sts &sts)
{
    return sizeof(core::Sts) + sts.peak_freqs.size() * sizeof(double);
}

} // namespace

WireSource::WireSource(std::string tenant_id,
                       std::uint64_t session_key,
                       const WireSourceConfig &cfg,
                       Readiness *ingest_wake)
    : tenant_id_(std::move(tenant_id)), session_key_(session_key),
      cfg_(cfg), ingest_wake_(ingest_wake)
{
}

Pull
WireSource::next()
{
    Pull out;
    std::unique_lock<std::mutex> lock(mu_);
    // Replay delivered windows first (post-seek rewind).
    if (cursor_ < delivered_) {
        out.status = PullStatus::Ready;
        out.sts = windows_[std::size_t(cursor_ - base_)];
        ++cursor_;
        ++source_.delivered;
        idle_since_ms_ = -1.0;
        return out;
    }
    if (eof_total_ >= 0 && cursor_ >= std::uint64_t(eof_total_)) {
        out.status = PullStatus::EndOfStream;
        return out;
    }
    if (cursor_ < expected_) {
        const core::Sts &sts = windows_[std::size_t(cursor_ - base_)];
        out.status = PullStatus::Ready;
        out.sts = sts;
        recv_bytes_ -= stsBytes(sts);
        delivered_ = ++cursor_;
        ++source_.delivered;
        idle_since_ms_ = -1.0;
        while (delivered_ - base_ > cfg_.replay_window) {
            windows_.pop_front();
            ++base_;
        }
        // Wake the loop holding a refused tail once half the window
        // is free again: one wakeup per half window, not per window.
        const std::uint64_t undelivered = expected_ - delivered_;
        if (ingest_waiting_ && ingest_wake_ != nullptr &&
            2 * undelivered <= cfg_.recv_capacity &&
            (cfg_.recv_max_bytes == 0 ||
             2 * recv_bytes_ <= cfg_.recv_max_bytes)) {
            ingest_waiting_ = false;
            lock.unlock();
            ingest_wake_->raise();
        }
        return out;
    }
    // A closed, drained window will never deliver: Stalled at once
    // (an accepted EOF ended the stream above).
    if (closed_) {
        ++source_.stalls;
        out.status = PullStatus::Stalled;
        return out;
    }
    const double now = nowMs();
    if (idle_since_ms_ < 0.0)
        idle_since_ms_ = now;
    if (now - idle_since_ms_ >= cfg_.stall_timeout_ms) {
        ++source_.stalls;
        out.status = PullStatus::Stalled;
        return out;
    }
    out.status = PullStatus::Pending;
    return out;
}

bool
WireSource::seek(std::uint64_t pos)
{
    std::lock_guard<std::mutex> lock(mu_);
    // A restart re-seeks: the peer gets a full stall timeout again.
    idle_since_ms_ = -1.0;
    // Rewind (or fast-forward within delivered history) served from
    // the retained windows. Beyond them the wire cannot help: the
    // peer replays from its ACK, not from arbitrary positions.
    if (pos == cursor_ || (pos >= base_ && pos <= delivered_)) {
        cursor_ = pos;
        return true;
    }
    return false;
}

std::uint64_t
WireSource::position() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return cursor_;
}

SourceStats
WireSource::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return source_;
}

WireSource::Ingest
WireSource::ingest(std::uint64_t first_seq, std::vector<core::Sts> &batch)
{
    std::unique_lock<std::mutex> lock(mu_);
    if (batch.empty())
        return Ingest::Ok;
    if (first_seq > expected_) {
        ++wire_.gaps_refused;
        return Ingest::Gap;
    }
    const std::uint64_t skip = expected_ - first_seq;
    if (skip >= batch.size()) {
        wire_.duplicates_dropped += batch.size();
        batch.clear();
        return Ingest::Ok; // pure replay, nothing new
    }
    if (closed_)
        return Ingest::Closed;
    wire_.duplicates_dropped += skip;
    std::size_t taken = std::size_t(skip);
    for (; taken < batch.size(); ++taken) {
        // An empty window always takes one window, however large, so
        // no window is refused forever.
        const std::uint64_t undelivered = expected_ - delivered_;
        const std::size_t cost = stsBytes(batch[taken]);
        if (undelivered != 0 &&
            (undelivered >= cfg_.recv_capacity ||
             (cfg_.recv_max_bytes != 0 &&
              recv_bytes_ + cost > cfg_.recv_max_bytes)))
            break;
        windows_.push_back(std::move(batch[taken]));
        recv_bytes_ += cost;
        ++expected_;
        ++wire_.ingested;
    }
    const bool pushed = taken > skip;
    batch.erase(batch.begin(), batch.begin() + std::ptrdiff_t(taken));
    Ingest result = Ingest::Ok;
    if (!batch.empty()) {
        ++wire_.refused_pushes;
        ingest_waiting_ = true;
        result = Ingest::Full;
    }
    lock.unlock();
    if (pushed)
        wake();
    return result;
}

WireSource::Ingest
WireSource::noteEof(std::uint64_t total)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (total != expected_) {
            ++wire_.gaps_refused;
            return Ingest::Gap;
        }
        eof_total_ = std::int64_t(total);
        closed_ = true;
    }
    wake();
    return Ingest::Ok;
}

std::uint64_t
WireSource::expected() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return expected_;
}

void
WireSource::closeIngest()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        closed_ = true;
        ingest_waiting_ = false;
    }
    wake();
}

bool
WireSource::eofKnown() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return eof_total_ >= 0;
}

void
WireSource::watch(Readiness *r)
{
    std::lock_guard<std::mutex> lock(watch_mu_);
    watcher_ = r;
}

void
WireSource::wake()
{
    std::lock_guard<std::mutex> lock(watch_mu_);
    if (watcher_ != nullptr)
        watcher_->raise();
}

WireSourceStats
WireSource::wireStats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return wire_;
}

} // namespace eddie::serve

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

/** Reader-side nap while the receive window is full; short enough to
 *  notice an abort promptly, long enough not to spin. */
constexpr double kIngestNapMs = 2.0;

/** Windows next() drains from the receive queue per lock
 *  acquisition. Bounds the extra buffering past recv_capacity to one
 *  batch while amortizing the mutex + wakeup across it. */
constexpr std::size_t kDrainBatch = 32;

} // namespace

WireSource::WireSource(std::string tenant_id,
                       std::uint64_t session_key,
                       const WireSourceConfig &cfg)
    : tenant_id_(std::move(tenant_id)), session_key_(session_key),
      cfg_(cfg),
      recv_(StsQueueConfig{cfg.recv_capacity, cfg.recv_max_bytes})
{
}

void
WireSource::retain(core::Sts sts)
{
    retained_.push_back(std::move(sts));
    while (retained_.size() > cfg_.replay_window) {
        retained_.pop_front();
        ++retained_base_;
    }
}

Pull
WireSource::next()
{
    Pull out;
    for (;;) {
        const std::uint64_t cursor = cursor_.load();
        // Replay from the retained deque first (post-seek rewind).
        if (cursor < retained_base_ + retained_.size()) {
            out.status = PullStatus::Ready;
            out.sts = retained_[std::size_t(cursor - retained_base_)];
            cursor_.store(cursor + 1);
            delivered_.fetch_add(1);
            idle_since_ms_ = -1.0;
            return out;
        }
        const std::int64_t eof = eof_total_.load();
        if (eof >= 0 && cursor >= std::uint64_t(eof)) {
            out.status = PullStatus::EndOfStream;
            return out;
        }
        // Serve from the staged drain batch, refilling it from the
        // queue (one lock per batch) only once it runs dry.
        if (pending_pos_ < pending_.size()) {
            out.status = PullStatus::Ready;
            out.sts = pending_[pending_pos_];
            retain(std::move(pending_[pending_pos_]));
            ++pending_pos_;
            cursor_.store(cursor + 1);
            delivered_.fetch_add(1);
            idle_since_ms_ = -1.0;
            return out;
        }
        if (recv_.popBatch(pending_, kDrainBatch, 0.0) > 0) {
            pending_pos_ = 0;
            continue;
        }
        // A closed, drained window will never deliver: Stalled at once
        // unless EOF made it terminal (EOF may have landed between the
        // checks above; the next iteration decides).
        if (recv_.drained()) {
            if (eof_total_.load() < 0) {
                stalls_.fetch_add(1);
                out.status = PullStatus::Stalled;
                return out;
            }
            continue;
        }
        break;
    }
    const double now = nowMs();
    if (idle_since_ms_ < 0.0)
        idle_since_ms_ = now;
    if (now - idle_since_ms_ >= cfg_.stall_timeout_ms) {
        stalls_.fetch_add(1);
        out.status = PullStatus::Stalled;
        return out;
    }
    out.status = PullStatus::Pending;
    return out;
}

bool
WireSource::seek(std::uint64_t pos)
{
    // A restart re-seeks: the peer gets a full stall timeout again.
    idle_since_ms_ = -1.0;
    const std::uint64_t end = retained_base_ + retained_.size();
    if (pos == cursor_.load())
        return true;
    // Rewind (or fast-forward within delivered history) served from
    // the replay deque. Beyond it the wire cannot help: the peer
    // replays from its ACK, not from arbitrary positions.
    if (pos >= retained_base_ && pos <= end) {
        cursor_.store(pos);
        return true;
    }
    return false;
}

SourceStats
WireSource::stats() const
{
    SourceStats out;
    out.delivered = delivered_.load();
    out.stalls = stalls_.load();
    return out;
}

WireSource::Ingest
WireSource::ingest(std::uint64_t first_seq,
                   std::vector<core::Sts> &&batch,
                   const std::function<bool()> &abort)
{
    if (batch.empty())
        return Ingest::Ok;
    const std::uint64_t expected = expected_.load();
    if (first_seq > expected) {
        gaps_.fetch_add(1);
        return Ingest::Gap;
    }
    const std::uint64_t skip = expected - first_seq;
    if (skip >= batch.size()) {
        duplicates_.fetch_add(batch.size());
        return Ingest::Ok; // pure replay, nothing new
    }
    if (skip > 0) {
        duplicates_.fetch_add(skip);
        batch.erase(batch.begin(),
                    batch.begin() + std::ptrdiff_t(skip));
    }
    while (!batch.empty()) {
        if (recv_.closed())
            return Ingest::Closed;
        // Non-blocking push + bounded backpressure wait: a reader
        // superseded by a reconnect must notice @p abort even while
        // the window is full, so the wait is capped at kIngestNapMs —
        // but it parks on the queue's free-space signal, waking the
        // moment the consumer pops (a blind nap here caps ingest at
        // capacity/nap_ms).
        const std::size_t pushed = recv_.pushBatch(batch);
        if (pushed > 0) {
            expected_.fetch_add(pushed);
            ingested_.fetch_add(pushed);
            wake();
            continue;
        }
        if (abort && abort())
            return Ingest::Aborted;
        recv_.waitNotFullFor(kIngestNapMs);
    }
    return Ingest::Ok;
}

WireSource::Ingest
WireSource::noteEof(std::uint64_t total)
{
    if (total != expected_.load()) {
        gaps_.fetch_add(1);
        return Ingest::Gap;
    }
    eof_total_.store(std::int64_t(total));
    recv_.close();
    wake();
    return Ingest::Ok;
}

void
WireSource::closeIngest()
{
    recv_.close();
    wake();
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
    WireSourceStats out;
    out.ingested = ingested_.load();
    out.duplicates_dropped = duplicates_.load();
    out.gaps_refused = gaps_.load();
    out.recv = recv_.stats();
    return out;
}

} // namespace eddie::serve

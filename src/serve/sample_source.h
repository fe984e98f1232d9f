/**
 * @file
 * Sample sources for the serving runtime: where the offline pipeline
 * iterates a fully materialized STS vector, the supervised runtime
 * pulls windows one at a time from a SampleSource that may stall,
 * fail transiently, or end.
 *
 * Three layers compose:
 *  - VectorSource replays a captured stream and is seekable — the
 *    property checkpoint recovery needs (resume re-seeks the source
 *    to the checkpointed position and replays).
 *  - FlakySource wraps any source with the deterministic fault
 *    schedule of faults/source_faults.h (stalls and transient errors
 *    keyed by (seed, index, attempt), never data loss).
 *  - RetryingSource turns those recoverable statuses back into
 *    delivered windows via bounded retries with capped exponential
 *    backoff (backoff.h), surfacing a stall only after the attempt
 *    budget is exhausted.
 *
 * A live source (serve/wire_source.h) never blocks in next(): with
 * nothing buffered it answers Pending and raises the Readiness it was
 * given by watch() once data, EOF, or a close arrives, so a few
 * worker threads can serve many idle sources.
 */

#ifndef EDDIE_SERVE_SAMPLE_SOURCE_H
#define EDDIE_SERVE_SAMPLE_SOURCE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "backoff.h"
#include "core/sts.h"
#include "faults/source_faults.h"

namespace eddie::serve
{

/** Outcome of one pull from a source. */
enum class PullStatus
{
    /** A window was delivered. */
    Ready,
    /** No data yet; retry later. */
    Stalled,
    /** The pull failed but the source is still alive; retry. */
    TransientError,
    /** The stream is exhausted; no further pulls will deliver. */
    EndOfStream,
    /** Nothing buffered yet, but the source is alive: not a fault.
     *  The source raises its watched Readiness when that changes. */
    Pending,
};

/** One pull result; sts is meaningful only when status is Ready. */
struct Pull
{
    PullStatus status = PullStatus::EndOfStream;
    core::Sts sts;
};

/** Delivery-path counters, aggregated into ServeStats. */
struct SourceStats
{
    std::uint64_t delivered = 0;
    std::uint64_t stalls = 0;
    std::uint64_t errors = 0;
    /** Retry attempts spent recovering stalls/errors. */
    std::uint64_t retries = 0;
    /** Pulls abandoned after exhausting the retry budget. */
    std::uint64_t give_ups = 0;
};

/**
 * Wake target of a source that can answer Pending: raise() says a pull
 * may now deliver (windows, an EOF, or a close arrived). The serving
 * engine makes each session the target of its own source. A source
 * may raise while holding its own lock, so raise() never calls back
 * into a source.
 */
class Readiness
{
  public:
    virtual void raise() = 0;

  protected:
    ~Readiness() = default;
};

/** Pull-based window stream. Implementations are single-consumer. */
class SampleSource
{
  public:
    virtual ~SampleSource() = default;

    /** Pulls the next window (or a non-Ready status). */
    virtual Pull next() = 0;

    /**
     * Repositions so the next delivered window is item @p pos.
     * Returns false for non-seekable sources; checkpoint recovery
     * requires true (serve/supervisor.h refuses to resume
     * otherwise).
     */
    virtual bool seek(std::uint64_t pos) = 0;

    /** Index of the next window to deliver. */
    virtual std::uint64_t position() const = 0;

    /** Delivery-path counters (wrappers aggregate their own). */
    virtual SourceStats stats() const { return {}; }

    /**
     * Points the source's wakeups at @p r (nullptr detaches). Only
     * sources that can answer Pending raise it; the default ignores
     * it. After watch(nullptr) returns, the source no longer touches
     * the previous target.
     */
    virtual void watch(Readiness *r) { (void)r; }
};

/** Replays a shared captured stream; seekable, never faults. */
class VectorSource : public SampleSource
{
  public:
    explicit VectorSource(
        std::shared_ptr<const std::vector<core::Sts>> stream);

    Pull next() override;
    bool seek(std::uint64_t pos) override;
    std::uint64_t position() const override { return pos_; }

  private:
    std::shared_ptr<const std::vector<core::Sts>> stream_;
    std::uint64_t pos_ = 0;
};

/**
 * Seekable source over a saved STS stream file ("EDDIESTS",
 * core/capture_io.h) — the file-backed input of tools/eddie_replay.
 * The stream is materialized eagerly at construction: replay files
 * are bounded capture artifacts, and an up-front decode turns a
 * corrupt file into a typed startup error instead of a mid-run
 * fault. Open failures throw core::IoError with errno context;
 * malformed content throws the capture codec's typed errors.
 */
class StsFileSource : public VectorSource
{
  public:
    explicit StsFileSource(const std::string &path);
};

/**
 * Wraps a source with the deterministic fault schedule of
 * faults/source_faults.h. Each call to next() consults the schedule
 * for (item index, attempt) and either injects a Stall /
 * TransientError (incrementing the per-item attempt counter) or
 * forwards to the inner source. Seeking resets the attempt counter,
 * so a replay after recovery sees the same schedule.
 */
class FlakySource : public SampleSource
{
  public:
    FlakySource(SampleSource &inner,
                const faults::SourceFaultConfig &faults);

    Pull next() override;
    bool seek(std::uint64_t pos) override;
    std::uint64_t position() const override { return inner_.position(); }
    SourceStats stats() const override { return stats_; }
    void watch(Readiness *r) override { inner_.watch(r); }

  private:
    SampleSource &inner_;
    faults::SourceFaultConfig faults_;
    /** Faulted attempts spent on the item at the current position. */
    std::uint64_t attempt_ = 0;
    SourceStats stats_;
};

/** Retry policy for RetryingSource. */
struct RetryConfig
{
    /** Total attempts per window (first try included) before the
     *  pull is abandoned as a give-up. */
    std::size_t max_attempts = 8;
    BackoffConfig backoff;
};

/**
 * Retries Stalled / TransientError pulls with backoff until a window
 * is delivered or the attempt budget runs out. Delivery resets the
 * backoff schedule. The sleep is injectable so tests and benches run
 * the full retry logic without wall-clock waits.
 */
class RetryingSource : public SampleSource
{
  public:
    using SleepFn = std::function<void(double ms)>;

    /** @param sleep nullptr = real sleep (std::this_thread). */
    RetryingSource(SampleSource &inner, const RetryConfig &cfg,
                   SleepFn sleep = nullptr);

    /** Ready, EndOfStream, Pending (passed through: not a fault),
     *  or Stalled after budget exhaustion (a counted give-up; the
     *  caller decides whether to re-pull). */
    Pull next() override;
    bool seek(std::uint64_t pos) override;
    std::uint64_t position() const override { return inner_.position(); }
    /** Full delivery accounting: every inner stall/error passes
     *  through this layer, so its counters cover the whole path. */
    SourceStats stats() const override;
    void watch(Readiness *r) override { inner_.watch(r); }

  private:
    SampleSource &inner_;
    RetryConfig cfg_;
    Backoff backoff_;
    SleepFn sleep_;
    SourceStats stats_;
};

} // namespace eddie::serve

#endif // EDDIE_SERVE_SAMPLE_SOURCE_H

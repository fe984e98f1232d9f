#include "sample_source.h"

#include <cerrno>
#include <chrono>
#include <fstream>
#include <thread>
#include <utility>

#include "core/capture_io.h"
#include "core/errors.h"

namespace eddie::serve
{

namespace
{

std::shared_ptr<const std::vector<core::Sts>>
loadStsFile(const std::string &path)
{
    errno = 0;
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw core::ioErrorErrno("sts stream: open", path);
    return std::make_shared<const std::vector<core::Sts>>(
        core::loadStsStream(is));
}

} // namespace

VectorSource::VectorSource(
    std::shared_ptr<const std::vector<core::Sts>> stream)
    : stream_(std::move(stream))
{
}

StsFileSource::StsFileSource(const std::string &path)
    : VectorSource(loadStsFile(path))
{
}

Pull
VectorSource::next()
{
    if (pos_ >= stream_->size())
        return {PullStatus::EndOfStream, {}};
    return {PullStatus::Ready, (*stream_)[std::size_t(pos_++)]};
}

bool
VectorSource::seek(std::uint64_t pos)
{
    if (pos > stream_->size())
        return false;
    pos_ = pos;
    return true;
}

FlakySource::FlakySource(SampleSource &inner,
                         const faults::SourceFaultConfig &faults)
    : inner_(inner), faults_(faults)
{
    faults::validate(faults);
}

Pull
FlakySource::next()
{
    const auto fate =
        faults::pullFate(faults_, inner_.position(), attempt_);
    switch (fate) {
    case faults::PullFate::Stall:
        ++attempt_;
        ++stats_.stalls;
        return {PullStatus::Stalled, {}};
    case faults::PullFate::TransientError:
        ++attempt_;
        ++stats_.errors;
        return {PullStatus::TransientError, {}};
    case faults::PullFate::Deliver:
        break;
    }
    attempt_ = 0;
    Pull pull = inner_.next();
    if (pull.status == PullStatus::Ready)
        ++stats_.delivered;
    return pull;
}

bool
FlakySource::seek(std::uint64_t pos)
{
    if (!inner_.seek(pos))
        return false;
    // Fresh attempt counter: the schedule is keyed by (index,
    // attempt), so a replayed item re-draws its fates from attempt 0
    // exactly as the first pass did.
    attempt_ = 0;
    return true;
}

RetryingSource::RetryingSource(SampleSource &inner,
                               const RetryConfig &cfg, SleepFn sleep)
    : inner_(inner), cfg_(cfg), backoff_(cfg.backoff),
      sleep_(std::move(sleep))
{
    if (!sleep_)
        sleep_ = [](double ms) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(ms));
        };
}

Pull
RetryingSource::next()
{
    for (std::size_t attempt = 0;; ++attempt) {
        Pull pull = inner_.next();
        switch (pull.status) {
        case PullStatus::Ready:
            ++stats_.delivered;
            backoff_.reset();
            return pull;
        case PullStatus::EndOfStream:
            backoff_.reset();
            return pull;
        case PullStatus::Pending:
            return pull;
        case PullStatus::Stalled:
            ++stats_.stalls;
            break;
        case PullStatus::TransientError:
            ++stats_.errors;
            break;
        }
        if (attempt + 1 >= cfg_.max_attempts) {
            ++stats_.give_ups;
            backoff_.reset();
            return {PullStatus::Stalled, {}};
        }
        ++stats_.retries;
        sleep_(backoff_.nextDelayMs());
    }
}

bool
RetryingSource::seek(std::uint64_t pos)
{
    if (!inner_.seek(pos))
        return false;
    backoff_.reset();
    return true;
}

SourceStats
RetryingSource::stats() const
{
    // Every stall/error the inner layers produced passed through
    // next() above, so this layer's counters already cover them;
    // re-adding inner_.stats() would double-count.
    return stats_;
}

} // namespace eddie::serve

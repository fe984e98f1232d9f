#include "power_trace.h"

#include <algorithm>
#include <stdexcept>

namespace eddie::power
{

PowerTrace::PowerTrace(std::uint64_t cycles_per_sample, double clock_hz)
    : cycles_per_sample_(cycles_per_sample), clock_hz_(clock_hz)
{
    if (cycles_per_sample_ == 0)
        throw std::invalid_argument("PowerTrace: zero bucket width");
    if (clock_hz_ <= 0.0)
        throw std::invalid_argument("PowerTrace: bad clock");
}

void
PowerTrace::grow(std::uint64_t bucket)
{
    samples_.resize(std::max<std::uint64_t>(bucket + 1,
                                            2 * samples_.size()),
                    0.0);
}

void
PowerTrace::finalize(std::uint64_t end_cycle, double baseline_per_cycle)
{
    used_ = std::max(used_, sampleOf(end_cycle) + 1);
    samples_.resize(used_, 0.0);
    for (auto &s : samples_)
        s += baseline_per_cycle * double(cycles_per_sample_);
}

double
PowerTrace::sampleRate() const
{
    return clock_hz_ / double(cycles_per_sample_);
}

} // namespace eddie::power

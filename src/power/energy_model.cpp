#include "energy_model.h"

#include <cmath>

namespace eddie::power
{

EnergyModel::EnergyModel(const EnergyParams &params, std::size_t l1_bytes,
                         std::size_t l2_bytes, std::size_t pipeline_depth)
    : baseline_per_cycle_(params.baseline_per_cycle)
{
    const auto at = [this](Event e) -> double & {
        return energy_[std::size_t(e)];
    };
    at(Event::IssueBase) = params.issue_base;
    at(Event::AluOp) = params.alu;
    at(Event::MulOp) = params.mul;
    at(Event::DivOp) = params.div;
    at(Event::BranchOp) = params.branch;
    // First-order CACTI behaviour: access energy ~ sqrt(capacity).
    at(Event::L1Access) = params.l1_ref *
        std::sqrt(double(l1_bytes) / double(32 * 1024));
    at(Event::L2Access) = params.l2_ref *
        std::sqrt(double(l2_bytes) / double(256 * 1024));
    at(Event::DramAccess) = params.dram;
    at(Event::PipelineFlush) =
        params.flush_per_stage * double(pipeline_depth);
}

} // namespace eddie::power

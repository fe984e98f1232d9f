/**
 * @file
 * Umbrella header: the whole EDDIE public API with one include.
 *
 * Downstream users typically need only this plus the libraries
 * produced by src/ (link order: eddie_core already pulls in every
 * substrate).
 */

#ifndef EDDIE_EDDIE_H
#define EDDIE_EDDIE_H

// EDDIE core: training, monitoring, metrics, persistence.
#include "core/baseline_parametric.h"
#include "core/baseline_power.h"
#include "core/capture_io.h"
#include "core/metrics.h"
#include "core/model.h"
#include "core/monitor.h"
#include "core/pipeline.h"
#include "core/sts.h"
#include "core/trainer.h"

// Threat model.
#include "cpu/injection.h"
#include "inject/scenarios.h"

// Substrates.
#include "cpu/core.h"
#include "em/emanation.h"
#include "power/energy_model.h"
#include "power/power_trace.h"
#include "prog/builder.h"
#include "prog/cfg.h"
#include "prog/loops.h"
#include "prog/program.h"
#include "prog/regions.h"
#include "sig/fft.h"
#include "sig/filter.h"
#include "sig/modulation.h"
#include "sig/noise.h"
#include "sig/peaks.h"
#include "sig/spectrum.h"
#include "sig/stft.h"
#include "sig/window.h"
#include "stats/anova.h"
#include "stats/descriptive.h"
#include "stats/edf.h"
#include "stats/gmm.h"
#include "stats/ks.h"
#include "stats/mwu.h"
#include "stats/special.h"

// Workloads.
#include "workloads/workload.h"

namespace eddie
{

/** Library version. */
constexpr int kVersionMajor = 1;
constexpr int kVersionMinor = 0;

} // namespace eddie

#endif // EDDIE_EDDIE_H

// The benchmark's workloads. Each sets up its inputs from the seed (kSetupReps
// times, see common.h), measures for opts.seconds, checks every result into
// the report and records the metrics of its mode (untraced: end-to-end;
// traced: per-layer). False means the workload could not be set up at all.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"
#include "report.h"

namespace perfbench {

/// TPC-H at 200k lineitem rows, one closed-loop client running all seven
/// queries as serial and heuristic plans: the exec kernels, maps,
/// fetch-joins and the morsel scheduler do nearly all the work; no
/// adaptation, no service. (At 2M rows the heavy queries are dominated by
/// page faults and memory bandwidth that other tenants of the host share,
/// and whole runs of the same code read 20-40% apart even at reference host
/// speed; at 200k a query's columns about fit the per-core L2.)
bool RunTpchExec(const Options& opts, Report* report);

/// Skewed TPC-DS at 80k store_sales rows (fits in L2), one closed-loop client:
/// each pass runs RunAdaptive from the serial plan of one of DS1-DS5 (round
/// robin) with the shipped convergence settings, then every serial,
/// heuristic and converged plan, so plan samples spread over the whole run.
bool RunTpcdsAdapt(const Options& opts, Report* report);

/// TPC-H at 200k lineitem rows served by an in-process QueryService at its
/// defaults, driven by one open-loop generator thread over nproc connections
/// with a 70/30 short/heavy mix on a fixed ladder of absolute rates; then the
/// mix's queries run directly as serial and heuristic plans.
bool RunTpchServe(const Options& opts, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

// Shared plumbing of the benchmark: run options, the set-up repetition rule,
// the environment guard, process counters and the scheduler counters read
// from the engine's metrics registry.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory the traced run writes its spans into.
  std::string out_dir = ".";
};

/// Set-up is repeated this many times per run and setup_s is the median, so
/// one slow set-up (a page-cache or allocator hiccup) does not move it.
constexpr int kSetupReps = 3;

/// Runs `setup` kSetupReps times (each must rebuild the workload state from
/// scratch, dropping the previous one first) and records setup_s.
void RunSetups(const std::function<void()>& setup, Report* report);

/// Workers of the benchmark's morsel fleet: one per hardware thread.
int Nproc();

/// Names of set APQ_* environment variables. Every APQ_* knob changes what
/// runs (execution path, SIMD tier, tracing, accounting, service limits,
/// exporters), so the benchmark refuses to measure with any of them set.
std::vector<std::string> SetApqVariables();

/// Minor page faults of this process so far.
uint64_t MinorFaults();

inline double Ms(double ns) { return ns / 1e6; }

/// Process-wide morsel-scheduler counters (every fleet of the process sums
/// into the engine's metrics registry).
struct SchedCounters {
  uint64_t tasks = 0;
  uint64_t steals = 0;
  uint64_t steal_fails = 0;
  double busy_ns = 0;  // summed over worker indexes [0, Nproc())

  static SchedCounters Read();
  SchedCounters operator-(const SchedCounters& o) const;
};

/// Records sched.tasks (per `units`), sched.steal_ratio and sched.busy_frac
/// from a counter delta over `wall_ns` of wall time.
void ReportSched(const SchedCounters& delta, double units, double wall_ns,
                 Report* report);

/// \brief Host speed, sampled through a run.
///
/// The benchmark shares cores, caches and memory bandwidth with other tenants
/// of its host, and what they take changes over seconds to minutes: whole
/// runs of the same code, set-up included, read up to a quarter apart. So
/// RunPasses times a fixed loop that runs no engine code before every pass,
/// and each plan time of the pass is also kept scaled by kHostRefMs / that
/// loop time: the time at the host speed where the loop takes kHostRefMs.
/// Host load moves both and largely cancels; a change to the engine moves
/// only the plan times.
constexpr double kHostRefMs = 5.0;

/// Times the fixed loop (hashing a 1 MiB array into a 256 KiB table, four
/// times over) once and records the time.
void SampleHostSpeed();

/// kHostRefMs over the latest loop time (1 before any sample).
double HostRefScale();

/// Median loop time over this process, in ms (0 before any sample), and the
/// number of samples.
double HostCalMs();
size_t HostCalSamples();

/// \brief Wall times of a closed loop's passes, untraced ([0]) and traced
/// ([1]).
struct Passes {
  std::vector<double> ms[2];
  int count = 0;
  /// Median traced pass over median untraced pass (0 without both).
  double TraceOverhead() const;
};

/// Runs `pass(i)` back to back, each after one SampleHostSpeed(), until the
/// next pass would end after `seconds`, at least once. With `trace`, odd
/// passes record spans and even ones do not (at least one of each), so
/// tracing cost is measured in the same process; span recording is left on
/// afterwards.
Passes RunPasses(double seconds, bool trace, const std::function<void(int)>& pass);

/// Prints the host and config fingerprint line ("fingerprint {...}").
void PrintFingerprint(const Options& opts,
                      const std::vector<std::pair<std::string, std::string>>&
                          workload_fields);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_

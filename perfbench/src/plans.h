// Direct plan execution shared by the three workloads: a workload's queries
// as serial, heuristic (dop = nproc) and, where the workload adapts,
// converged (GME) plans, each checked against the serial result and timed
// through Engine::RunPlan. The traced run adds a layer probe that calls the
// pieces RunPlan is made of (Evaluator::Execute, BuildSimTasks +
// Simulator::Run, MakeRunProfile) directly.
#ifndef PERFBENCH_PLANS_H_
#define PERFBENCH_PLANS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "report.h"

namespace perfbench {

/// An engine with the shipped EngineConfig whose morsel fleet (nproc
/// workers) is injected, the only execution setting the benchmark makes.
std::unique_ptr<apq::Engine> MakeFleetEngine();

enum Kind { kSerial = 0, kHp = 1, kGme = 2, kNumKinds = 3 };
const char* KindName(Kind k);

struct QueryEntry {
  std::string name;
  apq::QueryPlan plan[kNumKinds];
  bool has[kNumKinds] = {false, false, false};
  apq::Intermediate reference;  // serial result, from the warm-up run
  int reps = 1;  // back-to-back runs of each plan per pass
  std::vector<double> run_ms[kNumKinds];   // RunPlan wall times
  std::vector<double> exec_ms[kNumKinds];  // ... of which Evaluator::Execute
  std::vector<double> ref_ms[kNumKinds];   // run_ms at reference host speed
};

class PlanSet {
 public:
  using QueryFn =
      std::function<apq::StatusOr<apq::QueryPlan>(const std::string&)>;

  /// Builds the serial and heuristic plans of `names`, then warms up: runs
  /// each once (hash caches built, first-touch faults taken) and keeps the
  /// serial result as the reference. False (with the reason on stderr) when
  /// a plan cannot be built or run.
  bool Build(apq::Engine* engine, const std::vector<std::string>& names,
             const QueryFn& make_plan, Report* report);

  std::vector<QueryEntry>& entries() { return entries_; }

  /// Runs every plan of `kinds` through Engine::RunPlan, QueryEntry::reps
  /// times back to back, checking each result against the reference with
  /// IntermediatesEqual and counting results that are not bit-identical.
  /// Wall times are kept when `record` is set.
  void RunPass(apq::Engine* engine, const std::vector<Kind>& kinds,
               bool record, Report* report);

  /// Geomean over queries of the per-query median RunPlan time (ms).
  double GeomeanMs(Kind k) const {
    return GeomeanOfMedians(&QueryEntry::run_ms, k);
  }
  /// The same for the Evaluator::Execute wall time inside those calls.
  double GeomeanExecMs(Kind k) const {
    return GeomeanOfMedians(&QueryEntry::exec_ms, k);
  }
  uint64_t Samples(Kind k) const;

  /// Records serial_ref_ms / hp_ref_ms (as serial_ms / hp_ms, from the
  /// times at reference host speed, see kHostRefMs) with host.cal_ms,
  /// serial_ms / hp_ms (and gme_ms when GME plans exist), the
  /// matching exec.*_ms and engine.overhead_ms.* (RunPlan minus the Execute
  /// inside the same call), and exec.bit_mismatch_frac.
  void ReportTimes(Report* report) const;

  /// Traced-run layer probe: work amplification, CPU shares, unattributed
  /// time, faults, bytes, scheduler queue wait, sched.sim_us,
  /// profile.make_us and the 1-worker scaling ratio.
  void Probe(apq::Engine* engine, Report* report);

 private:
  using Times = std::vector<double>[kNumKinds];
  double GeomeanOfMedians(Times QueryEntry::*times, Kind k) const;

  std::vector<QueryEntry> entries_;
  uint64_t equal_runs_ = 0;     // results equal to the reference
  uint64_t bit_mismatch_ = 0;   // ... of which not bit-identical
};

/// A workload's data, engine and plans.
struct PlanState {
  std::shared_ptr<apq::Catalog> catalog;
  std::unique_ptr<apq::Engine> engine;
  PlanSet plans;

  /// Drops everything; the engine (and its hash cache over catalog columns)
  /// goes before the data.
  void Reset() {
    plans = PlanSet();
    engine.reset();
    catalog.reset();
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_PLANS_H_

// Skew handling (paper §4.1.1, Figs 8/12/13): how adaptive parallelization's
// dynamically sized partitions absorb execution skew that defeats static
// equi-range partitioning.
//
//   $ ./example_skew_handling
#include <algorithm>
#include <cstdio>

#include "engine/engine.h"
#include "workload/skew.h"

using namespace apq;

int main() {
  // Fig 13 data: first half random, second half five clusters of identical
  // values. Selecting cluster values produces matches concentrated in the
  // second half of the column.
  SkewConfig scfg;
  scfg.rows = 1'000'000;
  auto catalog = GenerateSkewed(scfg);
  std::printf("skewed column: %lu rows, matches land in the second half\n\n",
              static_cast<unsigned long>(scfg.rows));

  Engine engine(EngineConfig::WithSim(SimConfig::Cores(8, 8)));
  auto plan = SkewedSelectPlan(*catalog, scfg, /*pct_skew=*/30);
  APQ_CHECK(plan.ok());

  // Static equi-range partitioning: 8 equal slices, no matter where the
  // matching tuples live.
  auto hp = engine.RunHeuristic(plan.ValueOrDie(), 8);
  APQ_CHECK(hp.ok());
  std::printf("static 8 partitions, 8 threads:  %8.3f ms\n",
              hp.ValueOrDie().time_ns / 1e6);

  // Adaptive: the operator on the skewed partition keeps turning expensive
  // and keeps splitting "until expensiveness balances out" (paper §4.1.1).
  auto ap = engine.RunAdaptive(plan.ValueOrDie());
  APQ_CHECK(ap.ok());
  const AdaptiveOutcome& o = ap.ValueOrDie();
  std::printf("dynamic partitions, 8 threads:   %8.3f ms  (%d runs)\n\n",
              o.gme_time_ns / 1e6, o.total_runs);

  // Show the dynamically sized partitions of the converged plan (Fig 8):
  // fine partitions over the hot (clustered) region, coarse elsewhere.
  // The gather (fetch-join) over the matching tuples dominates this plan, so
  // its clones carry the interesting partitioning; fall back to the select's
  // slices if the select was the hot operator instead.
  auto reachable = o.gme_plan.TopologicalOrder();
  APQ_CHECK(reachable.ok());
  std::vector<RowRange> slices;
  for (OpKind kind : {OpKind::kFetchJoin, OpKind::kSelect}) {
    for (int id : reachable.ValueOrDie()) {
      const PlanNode& n = o.gme_plan.node(id);
      if (n.kind == kind && n.has_slice) slices.push_back(n.slice);
    }
    if (!slices.empty()) break;
  }
  std::sort(slices.begin(), slices.end(),
            [](const RowRange& a, const RowRange& b) { return a.begin < b.begin; });
  std::printf("converged hot-operator partitions (dynamic sizes, Fig 8):\n");
  for (const auto& s : slices) {
    double pct = 100.0 * s.size() / scfg.rows;
    int bars = std::max(1, static_cast<int>(pct / 2));
    std::printf("  [%9lu, %9lu)  %5.1f%%  %s\n",
                static_cast<unsigned long>(s.begin),
                static_cast<unsigned long>(s.end), pct,
                std::string(bars, '#').c_str());
  }
  std::printf(
      "\nNote how the second half (where the matches cluster) is cut into\n"
      "finer partitions than the cold first half.\n");

  // The same skew is visible *inside* a single operator when the serial plan
  // runs morsel-driven: the profiler's printed report carries a per-operator
  // morsel count and skew column (max/mean morsel wall time).
  EngineConfig mcfg = EngineConfig::WithSim(SimConfig::Cores(8, 8));
  Engine morsel_engine(mcfg);
  auto mr = morsel_engine.RunSerial(plan.ValueOrDie());
  APQ_CHECK(mr.ok());
  std::printf("\nper-operator report of the morsel-driven serial run:\n%s",
              RenderOpReport(mr.ValueOrDie().profile).c_str());
  return 0;
}

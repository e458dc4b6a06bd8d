#include <memory>

#include "engine/engine.h"
#include "plans.h"
#include "spans.h"
#include "stats.h"
#include "util/hash_clock.h"
#include "workload/tpch.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr uint64_t kLineitemRows = 200'000;

}  // namespace

bool RunTpchExec(const Options& opts, Report* report) {
  apq::TpchConfig cfg;
  cfg.lineitem_rows = kLineitemRows;
  cfg.seed = opts.seed;
  PrintFingerprint(opts, {{"lineitem_rows", std::to_string(cfg.lineitem_rows)},
                          {"orders_rows", std::to_string(cfg.orders_rows())},
                          {"queries", "Q4 Q6 Q8 Q9 Q14 Q19 Q22"},
                          {"plans", "serial, heuristic dop=nproc"}});

  PlanState st;
  bool ok = true;
  std::vector<double> gen_s;
  RunSetups(
      [&] {
        st.Reset();
        const double t0 = apq::NowNs();
        {
          Span span("workload.gen");
          st.catalog = apq::Tpch::Generate(cfg);
        }
        gen_s.push_back((apq::NowNs() - t0) / 1e9);
        st.engine = MakeFleetEngine();
        const apq::Catalog& cat = *st.catalog;
        ok = ok && st.plans.Build(
                       st.engine.get(), apq::Tpch::QueryNames(),
                       [&](const std::string& q) { return apq::Tpch::Query(cat, q); },
                       report);
      },
      report);
  if (!ok) return false;
  report->Set("workload.gen_s", Median(gen_s), gen_s.size());

  // Closed loop, one client: each pass runs every query serial, then
  // heuristic.
  const SchedCounters c0 = SchedCounters::Read();
  const double start = apq::NowNs();
  const Passes passes = RunPasses(opts.seconds, opts.trace, [&](int) {
    st.plans.RunPass(st.engine.get(), {kSerial, kHp}, true, report);
  });
  ReportSched(SchedCounters::Read() - c0, passes.count, apq::NowNs() - start,
              report);
  st.plans.ReportTimes(report);
  if (opts.trace) {
    report->Set("obs.trace_overhead", passes.TraceOverhead(), passes.count);
    st.plans.Probe(st.engine.get(), report);
  }
  st.Reset();
  return true;
}

}  // namespace perfbench

#include <algorithm>
#include <memory>
#include <string>

#include "adaptive/mutator.h"
#include "engine/engine.h"
#include "exec/compare.h"
#include "plans.h"
#include "spans.h"
#include "stats.h"
#include "util/hash_clock.h"
#include "workload/tpcds.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr uint64_t kStoreSalesRows = 80'000;
constexpr int kMutateReps = 5;

// What the RunAdaptive calls of one query did, one entry per call.
// Convergence runs on simulated time, but the mutator's skew test and the
// runtime morsel-size response also read wall-clock morsel skew, so these
// counts can differ between calls; each call is kept and the spread shown.
struct AdaptCounts {
  std::vector<double> runs, gme_run, skew_mutations, gme_nodes;

  void Add(const apq::AdaptiveOutcome& a) {
    runs.push_back(a.total_runs);
    gme_run.push_back(a.gme_run);
    skew_mutations.push_back(a.skew_mutations);
    gme_nodes.push_back(a.gme_plan.num_nodes());
  }
};

std::string Range(const std::vector<double>& v) {
  double lo = v.empty() ? 0 : v[0];
  double hi = lo;
  for (double x : v) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  return std::to_string(static_cast<long long>(lo)) + ".." +
         std::to_string(static_cast<long long>(hi));
}

// Sum over queries of the per-query median of `field`.
double SumOfMedians(const std::vector<AdaptCounts>& counts,
                    std::vector<double> AdaptCounts::*field) {
  double sum = 0;
  for (const AdaptCounts& c : counts) sum += Median(c.*field);
  return sum;
}

}  // namespace

bool RunTpcdsAdapt(const Options& opts, Report* report) {
  apq::TpcdsConfig cfg;
  cfg.store_sales_rows = kStoreSalesRows;
  cfg.seed = opts.seed;
  PrintFingerprint(opts,
                   {{"store_sales_rows", std::to_string(cfg.store_sales_rows)},
                    {"zipf_theta", std::to_string(cfg.zipf_theta)},
                    {"queries", "DS1 DS2 DS3 DS4 DS5"},
                    {"plans", "adaptive, serial, heuristic dop=nproc, gme"}});

  PlanState st;
  bool ok = true;
  std::vector<double> gen_s;
  RunSetups(
      [&] {
        st.Reset();
        const double t0 = apq::NowNs();
        {
          Span span("workload.gen");
          st.catalog = apq::Tpcds::Generate(cfg);
        }
        gen_s.push_back((apq::NowNs() - t0) / 1e9);
        // The shipped EngineConfig (simulated TwoSocket32 convergence).
        st.engine = MakeFleetEngine();
        const apq::Catalog& cat = *st.catalog;
        ok = ok && st.plans.Build(
                       st.engine.get(), apq::Tpcds::QueryNames(),
                       [&](const std::string& q) { return apq::Tpcds::Query(cat, q); },
                       report);
        if (!ok) return;
        // Warm-up adaptation: converges once and keeps the GME plans.
        for (QueryEntry& e : st.plans.entries()) {
          auto a = [&] {
            Span span("adaptive.run_adaptive");
            return st.engine->RunAdaptive(e.plan[kSerial]);
          }();
          const bool good = a.ok() && apq::IntermediatesEqual(
                                          a.ValueOrDie().result, e.reference);
          report->Check(good, e.name + " adaptive result (warm-up)");
          if (!good) {
            ok = false;
            return;
          }
          e.plan[kGme] = a.ValueOrDie().gme_plan;
          e.has[kGme] = true;
        }
        st.plans.RunPass(st.engine.get(), {kGme}, false, report);
      },
      report);
  if (!ok) return false;
  report->Set("workload.gen_s", Median(gen_s), gen_s.size());

  auto& entries = st.plans.entries();
  const size_t nq = entries.size();
  std::vector<std::vector<double>> adapt_s(nq);
  std::vector<std::vector<double>> eval_s(nq);  // Σ evaluation wall per call
  std::vector<double> sim_speedup(nq, 0);
  std::vector<AdaptCounts> counts(nq);

  // Closed loop, one client: each pass adapts one query (round robin) and
  // then runs every serial, heuristic and converged plan, so the plan
  // samples are spread evenly over the run.
  const SchedCounters c0 = SchedCounters::Read();
  const double start = apq::NowNs();
  const Passes passes = RunPasses(opts.seconds, opts.trace, [&](int pass) {
    const size_t i = static_cast<size_t>(pass) % nq;
    QueryEntry& e = entries[i];
    const double t0 = apq::NowNs();
    auto a = [&] {
      Span span("adaptive.run_adaptive", i);
      return st.engine->RunAdaptive(e.plan[kSerial]);
    }();
    const double secs = (apq::NowNs() - t0) / 1e9;
    const bool good = a.ok() && apq::IntermediatesEqual(a.ValueOrDie().result,
                                                        e.reference);
    report->Check(good, e.name + " adaptive result");
    if (good) {
      const apq::AdaptiveOutcome& out = a.ValueOrDie();
      adapt_s[i].push_back(secs);
      double eval_ns = 0;
      for (const apq::AdaptiveRun& r : out.runs) eval_ns += r.wall_ns;
      eval_s[i].push_back(eval_ns / 1e9);
      sim_speedup[i] = out.Speedup();
      counts[i].Add(out);
    }
    st.plans.RunPass(st.engine.get(), {kSerial, kHp, kGme}, true, report);
  });
  ReportSched(SchedCounters::Read() - c0, passes.count, apq::NowNs() - start,
              report);
  st.plans.ReportTimes(report);

  double adapt_total = 0;
  double eval_total = 0;
  uint64_t adapt_n = 0;
  std::string ranges;
  for (size_t i = 0; i < nq; ++i) {
    adapt_total += Median(adapt_s[i]);
    eval_total += Median(eval_s[i]);
    adapt_n += adapt_s[i].size();
    const AdaptCounts& c = counts[i];
    ranges += " " + entries[i].name + " (" + std::to_string(c.runs.size()) +
              " calls): runs " + Range(c.runs) + ", gme_run " +
              Range(c.gme_run) + ", skew_mutations " +
              Range(c.skew_mutations) + ", gme_nodes " + Range(c.gme_nodes) +
              ";";
  }
  report->Set("adapt_s", adapt_total, adapt_n);
  report->Set("adaptive.runs", SumOfMedians(counts, &AdaptCounts::runs),
              adapt_n);
  report->Set("adaptive.gme_run", SumOfMedians(counts, &AdaptCounts::gme_run),
              adapt_n);
  report->Set("adaptive.skew_mutations",
              SumOfMedians(counts, &AdaptCounts::skew_mutations), adapt_n);
  report->Set("adaptive.gme_nodes",
              SumOfMedians(counts, &AdaptCounts::gme_nodes), adapt_n);
  report->Note("adaptive counts per query:" + ranges);
  report->Set("adaptive.eval_s", eval_total, adapt_n);
  report->Set("adaptive.loop_s", adapt_total - eval_total, adapt_n);
  report->Set("adaptive.sim_speedup", Geomean(sim_speedup), nq);
  report->Set("adaptive.wall_speedup",
              st.plans.GeomeanMs(kSerial) / st.plans.GeomeanMs(kGme), nq);

  if (opts.trace) {
    report->Set("obs.trace_overhead", passes.TraceOverhead(), passes.count);
    st.plans.Probe(st.engine.get(), report);
    // One mutation step from each serial plan's profile.
    apq::Mutator mutator(st.engine->config().mutator);
    std::vector<double> mutate_us;
    for (QueryEntry& e : entries) {
      auto run = st.engine->RunPlan(e.plan[kSerial]);
      report->Check(run.ok(), e.name + " serial plan for mutation");
      if (!run.ok()) continue;
      std::vector<double> us;
      for (int r = 0; r < kMutateReps; ++r) {
        apq::MutationReport rep;
        const double t0 = apq::NowNs();
        {
          Span span("adaptive.mutate");
          auto m = mutator.MutateMostExpensive(e.plan[kSerial],
                                               run.ValueOrDie().profile, &rep);
          report->Check(m.ok(), e.name + " mutation");
        }
        us.push_back((apq::NowNs() - t0) / 1e3);
      }
      mutate_us.push_back(Median(us));
    }
    double mean = 0;
    for (double u : mutate_us) mean += u;
    report->Set("adaptive.mutate_us",
                mutate_us.empty() ? 0 : mean / mutate_us.size(),
                mutate_us.size() * kMutateReps);
  }
  st.Reset();
  return true;
}

}  // namespace perfbench

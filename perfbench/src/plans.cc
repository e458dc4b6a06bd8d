#include "plans.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "common.h"
#include "exec/compare.h"
#include "obs/query_log.h"
#include "obs/resource_tracker.h"
#include "profile/profiler.h"
#include "spans.h"
#include "stats.h"
#include "util/hash_clock.h"

namespace perfbench {

namespace {

// Repetitions of each call in the traced-run probe.
constexpr int kProbeReps = 3;
// A pass runs each plan until about this much time is sampled (by the
// warm-up run's time), at most kMaxReps times: millisecond queries then
// contribute many samples per pass, heavy ones one.
constexpr double kSampleTargetMs = 50;
constexpr int kMaxReps = 25;

// Operator families of exec.cpu_share.*: partial-merge and top-N fold into
// their operator.
const char* CpuFamily(apq::OpKind k) {
  switch (k) {
    case apq::OpKind::kSelect: return "select";
    case apq::OpKind::kFetchJoin: return "fetchjoin";
    case apq::OpKind::kJoin: return "join";
    case apq::OpKind::kGroupBy: return "groupby";
    case apq::OpKind::kAggregate:
    case apq::OpKind::kAggrMerge: return "aggregate";
    case apq::OpKind::kMap: return "map";
    case apq::OpKind::kSort:
    case apq::OpKind::kTopN: return "sort";
    case apq::OpKind::kExchangeUnion: return "xunion";
    case apq::OpKind::kResult: return nullptr;
  }
  return nullptr;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace

std::unique_ptr<apq::Engine> MakeFleetEngine() {
  apq::EngineConfig cfg;
  cfg.morsel_scheduler = std::make_shared<apq::MorselScheduler>(Nproc());
  return std::make_unique<apq::Engine>(cfg);
}

const char* KindName(Kind k) {
  switch (k) {
    case kSerial: return "serial";
    case kHp: return "hp";
    case kGme: return "gme";
    case kNumKinds: break;
  }
  return "?";
}

bool PlanSet::Build(apq::Engine* engine, const std::vector<std::string>& names,
                    const QueryFn& make_plan, Report* report) {
  entries_.clear();
  std::vector<double> plan_us;
  int hp_nodes = 0;
  for (const std::string& name : names) {
    QueryEntry e;
    e.name = name;
    auto serial = make_plan(name);
    if (!serial.ok()) {
      std::fprintf(stderr, "perfbench: building %s: %s\n", name.c_str(),
                   serial.status().ToString().c_str());
      return false;
    }
    e.plan[kSerial] = serial.MoveValueOrDie();
    e.has[kSerial] = true;
    const double t0 = apq::NowNs();
    apq::StatusOr<apq::QueryPlan> hp = [&] {
      Span span("heuristic.plan");
      return engine->HeuristicPlan(e.plan[kSerial], Nproc());
    }();
    plan_us.push_back((apq::NowNs() - t0) / 1e3);
    if (!hp.ok()) {
      std::fprintf(stderr, "perfbench: heuristic plan of %s: %s\n",
                   name.c_str(), hp.status().ToString().c_str());
      return false;
    }
    e.plan[kHp] = hp.MoveValueOrDie();
    e.has[kHp] = true;
    hp_nodes += e.plan[kHp].num_nodes();
    const double r0 = apq::NowNs();
    auto ref = engine->RunPlan(e.plan[kSerial]);
    const double warm_ms = Ms(apq::NowNs() - r0);
    e.reps = std::max(1, std::min(kMaxReps, static_cast<int>(
                                                kSampleTargetMs / warm_ms)));
    if (!ref.ok()) {
      std::fprintf(stderr, "perfbench: running %s: %s\n", name.c_str(),
                   ref.status().ToString().c_str());
      return false;
    }
    e.reference = ref.ValueOrDie().result;
    entries_.push_back(std::move(e));
  }
  report->Set("heuristic.plan_us", Mean(plan_us), plan_us.size());
  report->Set("heuristic.nodes", hp_nodes, 1);
  // The rest of the warm-up: every other plan once, checked.
  RunPass(engine, {kHp}, /*record=*/false, report);
  return true;
}

void PlanSet::RunPass(apq::Engine* engine, const std::vector<Kind>& kinds,
                      bool record, Report* report) {
  for (QueryEntry& e : entries_) {
    for (Kind k : kinds) {
      if (!e.has[k]) continue;
      for (int r = 0; r < e.reps; ++r) {
        const double t0 = apq::NowNs();
        auto run = [&] {
          Span span("engine.run_plan");
          return engine->RunPlan(e.plan[k]);
        }();
        const double ms = Ms(apq::NowNs() - t0);
        const bool ok = run.ok() && apq::IntermediatesEqual(
                                        run.ValueOrDie().result, e.reference);
        report->Check(ok, e.name + " " + KindName(k) + " plan result");
        if (!ok) continue;
        ++equal_runs_;
        if (!apq::IntermediatesEqual(run.ValueOrDie().result, e.reference,
                                     0)) {
          ++bit_mismatch_;
        }
        if (record) {
          e.run_ms[k].push_back(ms);
          e.exec_ms[k].push_back(Ms(run.ValueOrDie().wall_ns));
          e.ref_ms[k].push_back(ms * HostRefScale());
        }
      }
    }
  }
}

double PlanSet::GeomeanOfMedians(Times QueryEntry::*times, Kind k) const {
  std::vector<double> med;
  for (const QueryEntry& e : entries_) {
    if (e.has[k]) med.push_back(Median((e.*times)[k]));
  }
  return Geomean(med);
}

uint64_t PlanSet::Samples(Kind k) const {
  uint64_t n = 0;
  for (const QueryEntry& e : entries_) n += e.run_ms[k].size();
  return n;
}

void PlanSet::ReportTimes(Report* report) const {
  for (const QueryEntry& e : entries_) {
    std::string line = "query " + e.name + ":";
    for (int ki = 0; ki < kNumKinds; ++ki) {
      const Kind k = static_cast<Kind>(ki);
      if (!e.has[k]) continue;
      char buf[128];
      std::snprintf(buf, sizeof(buf), " %s median %.3f p10 %.3f ms (n=%zu)",
                    KindName(k), Median(e.run_ms[k]),
                    Percentile(e.run_ms[k], 0.1), e.run_ms[k].size());
      line += buf;
    }
    report->Note(line);
  }
  report->Set("host.cal_ms", HostCalMs(), HostCalSamples());
  report->Set("serial_ref_ms", GeomeanOfMedians(&QueryEntry::ref_ms, kSerial),
              Samples(kSerial));
  report->Set("hp_ref_ms", GeomeanOfMedians(&QueryEntry::ref_ms, kHp),
              Samples(kHp));
  report->Set("serial_ms", GeomeanMs(kSerial), Samples(kSerial));
  report->Set("hp_ms", GeomeanMs(kHp), Samples(kHp));
  if (Samples(kGme) > 0) {
    report->Set("gme_ms", GeomeanMs(kGme), Samples(kGme));
  }
  for (int ki = 0; ki < kNumKinds; ++ki) {
    const Kind k = static_cast<Kind>(ki);
    if (Samples(k) == 0) continue;
    report->Set(std::string("exec.") + KindName(k) + "_ms", GeomeanExecMs(k),
                Samples(k));
    // Simulation, profile and query-log work RunPlan adds to Execute, per
    // query: the median over calls, averaged over the queries.
    std::vector<double> per_query;
    for (const QueryEntry& e : entries_) {
      std::vector<double> diff;
      for (size_t i = 0; i < e.run_ms[k].size(); ++i) {
        diff.push_back(e.run_ms[k][i] - e.exec_ms[k][i]);
      }
      if (!diff.empty()) per_query.push_back(Median(diff));
    }
    report->Set(std::string("engine.overhead_ms.") + KindName(k),
                Mean(per_query), Samples(k));
  }
  report->Set("exec.bit_mismatch_frac",
              equal_runs_ > 0 ? static_cast<double>(bit_mismatch_) /
                                    static_cast<double>(equal_runs_)
                              : 0,
              equal_runs_);
}

void PlanSet::Probe(apq::Engine* engine, Report* report) {
  Span probe_span("bench.probe");
  const apq::CostModel& cost = engine->cost_model();
  const apq::Simulator& sim = engine->simulator();
  const double workers = Nproc();

  double tuples_in[kNumKinds] = {0, 0, 0};
  std::map<std::string, double> cpu_by_family[kNumKinds];
  double cpu_total[kNumKinds] = {0, 0, 0};
  std::vector<double> unattributed, queue_wait, sim_us, profile_us;
  double faults = 0;
  double bytes_out = 0;

  for (QueryEntry& e : entries_) {
    for (int ki = 0; ki < kNumKinds; ++ki) {
      const Kind k = static_cast<Kind>(ki);
      if (!e.has[k]) continue;
      std::vector<double> fault_n, unattr, qwait;
      apq::EvalResult er;
      bool ok = true;
      for (int r = 0; r < kProbeReps && ok; ++r) {
        er = apq::EvalResult();
        const uint64_t f0 = MinorFaults();
        // Under a query id, as inside RunPlan, so the scheduler bills task
        // CPU and queue wait to the operators (OpMetrics::cpu_ns).
        const uint64_t qid = apq::obs::NextQueryId();
        apq::Status st = [&] {
          apq::obs::QueryIdScope scope(qid);
          Span span("exec.execute");
          return engine->evaluator()->Execute(e.plan[k], &er);
        }();
        apq::obs::FinishQuery(qid);
        fault_n.push_back(static_cast<double>(MinorFaults() - f0));
        ok = st.ok() && apq::IntermediatesEqual(er.result, e.reference);
        report->Check(ok, e.name + " " + KindName(k) + " probe result");
        if (!ok) break;
        double cpu = 0;
        double qw = 0;
        for (const apq::OpMetrics& m : er.metrics) {
          cpu += static_cast<double>(m.cpu_ns);
          qw += static_cast<double>(m.queue_wait_ns);
        }
        unattr.push_back(Ms(er.wall_ns - cpu / workers));
        qwait.push_back(Ms(qw));
      }
      if (!ok) continue;
      for (const apq::OpMetrics& m : er.metrics) {
        tuples_in[k] += static_cast<double>(m.tuples_in);
        const char* fam = CpuFamily(m.kind);
        if (fam == nullptr) continue;
        cpu_by_family[k][fam] += static_cast<double>(m.cpu_ns);
        cpu_total[k] += static_cast<double>(m.cpu_ns);
      }
      if (k == kSerial) {
        unattributed.push_back(Median(unattr));
        faults += Median(fault_n);
        for (const apq::OpMetrics& m : er.metrics) {
          bytes_out += static_cast<double>(m.bytes_out);
        }
      }
      if (k == kHp) queue_wait.push_back(Median(qwait));

      // The simulation and profile steps RunPlan adds after execution.
      std::vector<double> s_us, p_us;
      for (int r = 0; r < kProbeReps; ++r) {
        double t0 = apq::NowNs();
        apq::SimOutcome out;
        {
          Span span("sched.sim");
          out = sim.Run(apq::BuildSimTasks(e.plan[k], er.metrics, cost));
        }
        s_us.push_back((apq::NowNs() - t0) / 1e3);
        t0 = apq::NowNs();
        {
          Span span("profile.make");
          apq::RunProfile prof =
              apq::MakeRunProfile(e.plan[k], er.metrics, cost, out.timings,
                                  out.makespan_ns, out.utilization);
          (void)prof;
        }
        p_us.push_back((apq::NowNs() - t0) / 1e3);
      }
      sim_us.push_back(Median(s_us));
      profile_us.push_back(Median(p_us));
    }
  }

  for (int ki = 0; ki < kNumKinds; ++ki) {
    const Kind k = static_cast<Kind>(ki);
    if (cpu_total[k] == 0) continue;
    if (k != kSerial && tuples_in[kSerial] > 0) {
      report->Set(std::string("exec.work_amp.") + KindName(k),
                  tuples_in[k] / tuples_in[kSerial], 1);
    }
    if (k != kHp) {
      for (const char* fam : {"select", "fetchjoin", "join", "groupby",
                              "aggregate", "map", "sort", "xunion"}) {
        report->Set(std::string("exec.cpu_share.") + KindName(k) + "." + fam,
                    cpu_by_family[k][fam] / cpu_total[k], 1);
      }
    }
  }
  report->Set("exec.unattributed_ms", Mean(unattributed), unattributed.size());
  report->Set("exec.minor_faults", faults, entries_.size());
  report->Set("exec.bytes_out", bytes_out, 1);
  report->Set("sched.queue_wait_ms", Mean(queue_wait), queue_wait.size());
  report->Set("sched.sim_us", Mean(sim_us), sim_us.size());
  report->Set("profile.make_us", Mean(profile_us), profile_us.size());

  // Serial plans on a one-worker fleet against the nproc-worker timings of
  // the measured passes.
  apq::EngineConfig one_cfg = engine->config();
  one_cfg.morsel_scheduler = std::make_shared<apq::MorselScheduler>(1);
  apq::Engine one(one_cfg);
  std::vector<double> one_med;
  std::vector<double> full_med;
  for (QueryEntry& e : entries_) {
    std::vector<double> ms;
    // Warm the new evaluator's hash cache first, untimed.
    for (int r = 0; r <= kProbeReps; ++r) {
      const double t0 = apq::NowNs();
      auto run = [&] {
        Span span("engine.run_plan");
        return one.RunPlan(e.plan[kSerial]);
      }();
      const bool ok = run.ok() && apq::IntermediatesEqual(
                                      run.ValueOrDie().result, e.reference);
      report->Check(ok, e.name + " serial plan result at 1 worker");
      if (ok && r > 0) ms.push_back(Ms(apq::NowNs() - t0));
    }
    if (ms.empty() || e.run_ms[kSerial].empty()) continue;
    one_med.push_back(Median(ms));
    full_med.push_back(Median(e.run_ms[kSerial]));
  }
  const double full = Geomean(full_med);
  report->Set("sched.scaling", full > 0 ? Geomean(one_med) / full : 0,
              one_med.size() * kProbeReps);
}

}  // namespace perfbench

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "engine/engine.h"
#include "loadgen.h"
#include "plans.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "spans.h"
#include "stats.h"
#include "util/hash_clock.h"
#include "util/rng.h"
#include "workload/tpch.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr uint64_t kLineitemRows = 200'000;

// The ladder: fixed absolute rates a factor of two apart, never fractions of
// a capacity estimated at run time (a faster engine must not simply be
// offered more load). Each rung gets a share of the measured seconds; the
// headline rung gets the most so its short-class p99 has enough samples.
// The ladder stops at 160 qps: at 320 qps the heavy class alone needs about
// all four executors, and on a loaded host the admission queue overflows
// and sheds (ERR SHED), which would count as failed operations.
struct Rung {
  double rate_qps;
  double share;
};
constexpr Rung kLadder[] = {{40, 0.1}, {80, 0.15}, {160, 0.4}};
constexpr double kHeadlineQps = 160;
// The rest of the measured seconds runs the mix's queries directly; a third
// of the run, so that the end-to-end plan times rest on enough passes.
constexpr double kDirectShare = 0.35;
// max_qps: heavy p90 limit of a passing rung.
constexpr double kHeavyP90LimitMs = 100;
// A rung whose p99 send lateness exceeds this is invalid: the generator,
// not the server, set its latencies.
constexpr double kLateLimitMs = 5;
// Responses still missing this long after a rung's last due time are lost.
constexpr double kDrainS = 10;
constexpr double kBacklogSampleNs = 50e6;

// The 70/30 short/heavy mix, in blocks of ten shuffled by the seed.
const char* const kMixBlock[] = {"Q6", "Q6", "Q6", "Q6", "Q6",
                                 "Q6", "Q14", "Q4", "Q9", "Q19"};
const std::vector<std::string> kMixQueries = {"Q4", "Q6", "Q9", "Q14", "Q19"};

std::vector<std::string> MixOrder(size_t n, apq::Rng* rng) {
  std::vector<std::string> out;
  out.reserve(n + 10);
  while (out.size() < n) {
    std::vector<std::string> block(std::begin(kMixBlock), std::end(kMixBlock));
    for (size_t i = block.size() - 1; i > 0; --i) {
      std::swap(block[i], block[rng->Uniform(i + 1)]);
    }
    out.insert(out.end(), block.begin(), block.end());
  }
  out.resize(n);
  return out;
}

struct State : PlanState {  // the engine runs the direct plans
  std::map<std::string, std::string> expected;  // served ROW lines per query
  std::unique_ptr<apq::service::QueryService> service;
  std::unique_ptr<LoadGen> gen;

  void Reset() {
    gen.reset();
    if (service) service->Stop();
    service.reset();
    expected.clear();
    PlanState::Reset();
  }
};

// Served ROW lines against the direct run's, by the rule IntermediatesEqual
// applies to results: every token identical, except floating-point values
// (those printed with a '.' or an exponent), which may differ by 1e-9
// relative to max(|a|, |b|, 1). Row order must match.
bool RowsEqual(const std::string& got, const std::string& want) {
  std::istringstream g(got);
  std::istringstream w(want);
  std::string a, b;
  while (true) {
    const bool ga = static_cast<bool>(g >> a);
    const bool wb = static_cast<bool>(w >> b);
    if (ga != wb) return false;
    if (!ga) return true;
    if (a == b) continue;
    if (a.find_first_of(".eE") == std::string::npos ||
        b.find_first_of(".eE") == std::string::npos) {
      return false;
    }
    char* ea = nullptr;
    char* eb = nullptr;
    const double x = std::strtod(a.c_str(), &ea);
    const double y = std::strtod(b.c_str(), &eb);
    if (*ea != '\0' || *eb != '\0') return false;
    const double scale = std::max({std::fabs(x), std::fabs(y), 1.0});
    if (!(std::fabs(x - y) <= 1e-9 * scale)) return false;
  }
}

// Served-result tally: OK blocks, and those not byte-identical to the direct
// serialization (equal by RowsEqual, so not failures).
struct ServedTally {
  uint64_t ok_blocks = 0;
  uint64_t byte_mismatch = 0;
};

// Checks one served response against the direct result; true when correct.
bool CheckServed(const Request& r, const State& st, ServedTally* tally,
                 Report* report) {
  auto it = st.expected.find(r.query);
  const bool ok = r.done_ns != 0 && r.ok && it != st.expected.end() &&
                  RowsEqual(r.body, it->second);
  report->Check(ok, "served " + r.query + ": " +
                        (r.done_ns == 0 ? std::string("no response")
                                        : r.header.substr(0, 60)));
  if (ok) {
    ++tally->ok_blocks;
    if (r.body != it->second) ++tally->byte_mismatch;
  }
  return ok;
}

// What one rung measured.
struct RungResult {
  LadderStep step;
  uint64_t sent = 0;
  std::vector<double> short_ms, heavy_ms;  // latency from due time
  std::vector<double> late_ms, queue_ms, io_ms;
  std::vector<double> exec_short_ms, exec_heavy_ms;
  uint64_t degraded = 0;
  uint64_t promoted = 0;
  uint64_t responses = 0;
  SchedCounters sched;
  double wall_ns = 0;
};

RungResult RunRung(const Rung& rung, double seconds, apq::Rng* rng, State* st,
                   ServedTally* tally, Report* report) {
  RungResult rr;
  rr.step.rate_qps = rung.rate_qps;
  const size_t n = static_cast<size_t>(rung.rate_qps * rung.share * seconds);
  const std::vector<std::string> mix = MixOrder(n, rng);
  std::vector<Request> reqs(n);
  const double t0 = apq::NowNs() + 20e6;
  for (size_t i = 0; i < n; ++i) {
    reqs[i].query = mix[i];
    reqs[i].due_ns = t0 + static_cast<double>(i) * 1e9 / rung.rate_qps;
  }
  const apq::service::ServiceStats s0 = st->service->Stats();
  const SchedCounters c0 = SchedCounters::Read();
  std::vector<double> outstanding;
  const double w0 = apq::NowNs();
  {
    Span span("bench.step", static_cast<uint64_t>(rung.rate_qps));
    st->gen->Run(&reqs, kDrainS, kBacklogSampleNs, &outstanding);
  }
  rr.wall_ns = apq::NowNs() - w0;
  rr.sched = SchedCounters::Read() - c0;
  const apq::service::ServiceStats s1 = st->service->Stats();
  rr.degraded = s1.degraded_total - s0.degraded_total;
  rr.promoted = s1.admission.promoted_total - s0.admission.promoted_total;
  rr.responses = s1.responses_total - s0.responses_total;
  rr.sent = n;

  for (const Request& r : reqs) {
    rr.late_ms.push_back(Ms(r.sent_ns - r.due_ns));
    if (!CheckServed(r, *st, tally, report)) {
      ++rr.step.errors;
      continue;
    }
    const bool heavy = apq::service::IsHeavyQuery(r.query);
    const double lat = Ms(r.done_ns - r.due_ns);
    (heavy ? rr.heavy_ms : rr.short_ms).push_back(lat);
    (heavy ? rr.exec_heavy_ms : rr.exec_short_ms).push_back(Ms(r.wall_ns));
    rr.queue_ms.push_back(Ms(r.queue_wait_ns));
    rr.io_ms.push_back(
        Ms((r.done_ns - r.sent_ns) - r.queue_wait_ns - r.wall_ns));
  }
  rr.step.valid = Percentile(rr.late_ms, 0.99) <= kLateLimitMs;
  rr.step.heavy_p90_ms = Percentile(rr.heavy_ms, 0.9);
  rr.step.backlog_growing = BacklogGrowing(outstanding);
  return rr;
}

// A named tail percentile, or the highest the sample supports.
double TailAt(const std::vector<double>& v, double q, std::string* label) {
  if (PercentileSupported(v.size(), q)) {
    *label = "";
    return Percentile(v, q);
  }
  const Tail t = TailPercentile(v);
  char buf[64];
  std::snprintf(buf, sizeof(buf), " (only p%g supported)", t.q * 100);
  *label = buf;
  return t.value;
}

}  // namespace

bool RunTpchServe(const Options& opts, Report* report) {
  apq::TpchConfig cfg;
  cfg.lineitem_rows = kLineitemRows;
  cfg.seed = opts.seed;
  std::string ladder;
  for (const Rung& r : kLadder) {
    ladder += (ladder.empty() ? "" : "/") + std::to_string(static_cast<int>(r.rate_qps));
  }
  const apq::service::ServiceConfig scfg;  // the service's defaults
  PrintFingerprint(
      opts, {{"lineitem_rows", std::to_string(cfg.lineitem_rows)},
             {"ladder_qps", ladder},
             {"mix", "70/30 Q6 Q14 / Q4 Q9 Q19"},
             {"connections", std::to_string(Nproc())},
             {"max_concurrent", std::to_string(scfg.max_concurrent)},
             {"max_queue_depth", std::to_string(scfg.max_queue_depth)}});

  State st;
  ServedTally tally;
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
                       st.engine.get(), kMixQueries,
                       [&](const std::string& q) { return apq::Tpch::Query(cat, q); },
                       report);
        if (!ok) return;
        for (QueryEntry& e : st.plans.entries()) {
          st.expected[e.name] = apq::service::SerializeResult(e.reference);
        }
        st.service = std::make_unique<apq::service::QueryService>();
        apq::Status started = [&] {
          Span span("service.start");
          return st.service->Start(st.catalog, scfg);
        }();
        if (!started.ok()) {
          std::fprintf(stderr, "perfbench: service start: %s\n",
                       started.ToString().c_str());
          ok = false;
          return;
        }
        st.gen = std::make_unique<LoadGen>();
        if (!st.gen->Connect(st.service->port(), Nproc())) {
          std::fprintf(stderr, "perfbench: cannot connect to the service\n");
          ok = false;
          return;
        }
        // Warm-up: every query on every connection at once, a few rounds,
        // so each executor engine builds its hash caches and takes its
        // first-touch faults before anything is timed.
        for (int round = 0; round < 3; ++round) {
          std::vector<Request> burst;
          const double now = apq::NowNs();
          for (int c = 0; c < Nproc(); ++c) {
            for (const std::string& q : kMixQueries) {
              Request r;
              r.query = q;
              r.due_ns = now;
              burst.push_back(r);
            }
          }
          st.gen->Run(&burst, kDrainS, kBacklogSampleNs, nullptr);
          for (const Request& r : burst) {
            ok = CheckServed(r, st, &tally, report) && ok;
          }
        }
      },
      report);
  if (!ok) return false;
  report->Set("workload.gen_s", Median(gen_s), gen_s.size());

  apq::Rng rng(opts.seed);
  std::vector<LadderStep> steps;
  for (const Rung& rung : kLadder) {
    RungResult rr = RunRung(rung, opts.seconds, &rng, &st, &tally, report);
    steps.push_back(rr.step);
    std::string sl, hl;
    const double sp99 = TailAt(rr.short_ms, 0.99, &sl);
    const double hp90 = TailAt(rr.heavy_ms, 0.9, &hl);
    char line[320];
    std::snprintf(
        line, sizeof(line),
        "rung %4.0f qps: sent %llu, failed %llu, short p50 %.3f p99 %.3f%s ms "
        "(n=%zu), heavy p50 %.3f p90 %.3f%s ms (n=%zu), late p99 %.3f ms, "
        "backlog %s, %s",
        rung.rate_qps, static_cast<unsigned long long>(rr.sent),
        static_cast<unsigned long long>(rr.step.errors), Median(rr.short_ms),
        sp99, sl.c_str(), rr.short_ms.size(), Median(rr.heavy_ms), hp90,
        hl.c_str(), rr.heavy_ms.size(), Percentile(rr.late_ms, 0.99),
        rr.step.backlog_growing ? "GROWING" : "steady",
        rr.step.valid ? "valid" : "INVALID (generator late)");
    report->Note(line);
    if (rung.rate_qps != kHeadlineQps) continue;
    report->Set("short_p50_ms", Median(rr.short_ms), rr.short_ms.size());
    report->Set("short_p99_ms", sp99, rr.short_ms.size());
    report->Set("heavy_p50_ms", Median(rr.heavy_ms), rr.heavy_ms.size());
    report->Set("heavy_p90_ms", hp90, rr.heavy_ms.size());
    report->Set("service.queue_wait_ms.p50", Median(rr.queue_ms),
                rr.queue_ms.size());
    report->Set("service.queue_wait_ms.p99", Percentile(rr.queue_ms, 0.99),
                rr.queue_ms.size());
    report->Set("service.exec_ms.short", Median(rr.exec_short_ms),
                rr.exec_short_ms.size());
    report->Set("service.exec_ms.heavy", Median(rr.exec_heavy_ms),
                rr.exec_heavy_ms.size());
    report->Set("service.io_ms.p50", Median(rr.io_ms), rr.io_ms.size());
    report->Set("service.io_ms.p99", Percentile(rr.io_ms, 0.99),
                rr.io_ms.size());
    report->Set("service.degraded_frac",
                rr.responses > 0 ? static_cast<double>(rr.degraded) /
                                       static_cast<double>(rr.responses)
                                 : 0,
                rr.responses);
    report->Set("service.promoted", static_cast<double>(rr.promoted), 1);
    report->Set("service.gen_late_ms.p99", Percentile(rr.late_ms, 0.99),
                rr.late_ms.size());
    ReportSched(rr.sched, static_cast<double>(rr.sent), rr.wall_ns, report);
  }
  report->Set("max_qps", MaxLadderRate(steps, kHeavyP90LimitMs),
              steps.size());
  report->Set("service.byte_mismatch_frac",
              tally.ok_blocks > 0 ? static_cast<double>(tally.byte_mismatch) /
                                        static_cast<double>(tally.ok_blocks)
                                  : 0,
              tally.ok_blocks);

  // Direct runs of the mix's queries (no service): serial_ref_ms / hp_ref_ms
  // here.
  const Passes passes =
      RunPasses(kDirectShare * opts.seconds, opts.trace, [&](int) {
        st.plans.RunPass(st.engine.get(), {kSerial, kHp}, true, report);
      });
  st.plans.ReportTimes(report);
  if (opts.trace) {
    report->Set("obs.trace_overhead", passes.TraceOverhead(), passes.count);
    st.plans.Probe(st.engine.get(), report);
  }
  st.Reset();
  return true;
}

}  // namespace perfbench

#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <thread>

#include "exec/simd/simd_ops.h"
#include "obs/metrics.h"
#include "sched/simulator.h"
#include "spans.h"
#include "stats.h"
#include "util/hash_clock.h"

extern char** environ;

namespace perfbench {

void RunSetups(const std::function<void()>& setup, Report* report) {
  std::vector<double> secs;
  for (int i = 0; i < kSetupReps; ++i) {
    const double t0 = apq::NowNs();
    setup();
    secs.push_back((apq::NowNs() - t0) / 1e9);
  }
  report->Set("setup_s", Median(secs), secs.size());
}

int Nproc() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::vector<std::string> SetApqVariables() {
  std::vector<std::string> out;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "APQ_", 4) == 0) {
      const char* eq = std::strchr(*e, '=');
      out.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
    }
  }
  return out;
}

uint64_t MinorFaults() {
  rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_minflt);
}

SchedCounters SchedCounters::Read() {
  auto& reg = apq::obs::MetricsRegistry::Global();
  SchedCounters c;
  c.tasks = reg.GetCounter("apq_sched_tasks_total")->Value();
  c.steals = reg.GetCounter("apq_sched_steals_total")->Value();
  c.steal_fails = reg.GetCounter("apq_sched_steal_fails_total")->Value();
  for (int w = 0; w < Nproc(); ++w) {
    c.busy_ns += static_cast<double>(
        reg.GetCounter("apq_sched_worker_busy_ns_total{worker=\"" +
                       std::to_string(w) + "\"}")
            ->Value());
  }
  return c;
}

SchedCounters SchedCounters::operator-(const SchedCounters& o) const {
  SchedCounters d;
  d.tasks = tasks - o.tasks;
  d.steals = steals - o.steals;
  d.steal_fails = steal_fails - o.steal_fails;
  d.busy_ns = busy_ns - o.busy_ns;
  return d;
}

void ReportSched(const SchedCounters& delta, double units, double wall_ns,
                 Report* report) {
  report->Set("sched.tasks",
              units > 0 ? static_cast<double>(delta.tasks) / units : 0, 1);
  const double attempts =
      static_cast<double>(delta.steals) + static_cast<double>(delta.steal_fails);
  report->Set("sched.steal_ratio",
              attempts > 0 ? static_cast<double>(delta.steals) / attempts : 0,
              1);
  report->Set("sched.busy_frac",
              wall_ns > 0 ? delta.busy_ns / (Nproc() * wall_ns) : 0, 1);
}

namespace {

std::vector<double>& HostCal() {
  static std::vector<double> ms;
  return ms;
}

}  // namespace

void SampleHostSpeed() {
  static const std::vector<uint32_t> data = [] {
    std::vector<uint32_t> d(1 << 18);
    uint64_t x = 42;
    for (uint32_t& v : d) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      v = static_cast<uint32_t>(x >> 33);
    }
    return d;
  }();
  static std::vector<uint32_t> table(1 << 16);
  static volatile uint64_t sink = 0;
  const double t0 = apq::NowNs();
  uint64_t acc = 0;
  for (int r = 0; r < 4; ++r) {
    for (uint32_t v : data) {
      const uint32_t h = (v * 2654435761u) >> 16;
      if ((v & 7) < 5) {
        table[h] += v;
      } else {
        acc += table[h ^ 1];
      }
    }
  }
  sink = sink + acc;
  HostCal().push_back(Ms(apq::NowNs() - t0));
}

double HostRefScale() {
  return HostCal().empty() ? 1 : kHostRefMs / HostCal().back();
}

double HostCalMs() { return Median(HostCal()); }

size_t HostCalSamples() { return HostCal().size(); }

double Passes::TraceOverhead() const {
  const double base = Median(ms[0]);
  return base > 0 && !ms[1].empty() ? Median(ms[1]) / base : 0;
}

Passes RunPasses(double seconds, bool trace,
                 const std::function<void(int)>& pass) {
  Passes out;
  const double deadline = apq::NowNs() + seconds * 1e9;
  const int min_passes = trace ? 2 : 1;
  double last_ns = 0;
  while (out.count < min_passes || apq::NowNs() + last_ns <= deadline) {
    SampleHostSpeed();
    const bool traced = trace && out.count % 2 == 1;
    Spans().set_enabled(traced);
    const double t0 = apq::NowNs();
    {
      Span span("bench.pass", static_cast<uint64_t>(out.count));
      pass(out.count);
    }
    last_ns = apq::NowNs() - t0;
    out.ms[traced ? 1 : 0].push_back(Ms(last_ns));
    ++out.count;
  }
  Spans().set_enabled(trace);
  return out;
}

void PrintFingerprint(
    const Options& opts,
    const std::vector<std::pair<std::string, std::string>>& workload_fields) {
  const apq::SimConfig sim = apq::SimConfig::TwoSocket32();
#ifdef NDEBUG
  const char* asserts = "off";
#else
  const char* asserts = "on";
#endif
  std::printf(
      "fingerprint {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"nproc\":%d,\"fleet\":%d,\"simd\":\"%s\","
      "\"build\":\"%s\",\"asserts\":\"%s\",\"sim\":\"TwoSocket32 "
      "(%d logical / %d physical)\"",
      opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
      opts.seconds, opts.trace ? 1 : 0, Nproc(), Nproc(),
      apq::simd::LevelName(apq::simd::Resolve(apq::simd::SimdLevel::kAuto).level),
      PERFBENCH_BUILD_TYPE, asserts, sim.logical_cores, sim.physical_cores);
  for (const auto& [k, v] : workload_fields) {
    std::printf(",\"%s\":\"%s\"", k.c_str(), v.c_str());
  }
  std::printf("}\n");
}

}  // namespace perfbench

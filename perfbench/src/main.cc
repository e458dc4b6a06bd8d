// perfbench: the repository benchmark.
//
//   perfbench --workload <tpch_exec|tpcds_adapt|tpch_serve> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//   perfbench --selftest
//
// Prints the fingerprint, a human report (every metric with unit and sample
// count, every failed check) and, as the last line, one JSON object with the
// correctness tally and the metrics of the mode: end-to-end untraced,
// per-layer traced. The traced run also writes its spans to
// <out-dir>/spans-<workload>-seed<n>.json.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "report.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<tpch_exec|tpcds_adapt|tpch_serve> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>] | --selftest\n",
               why);
  return 2;
}

bool ParseUint(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (!SelfTest()) return 3;
  Options opts;
  uint64_t seconds = 0;
  uint64_t trace = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      std::printf("perfbench self-test passed\n");
      return 0;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    if (arg == "--workload") {
      opts.workload = val;
    } else if (arg == "--seed") {
      have_seed = ParseUint(val, &opts.seed);
      if (!have_seed) return Usage("bad --seed");
    } else if (arg == "--seconds") {
      if (!ParseUint(val, &seconds) || seconds < 1 || seconds > 3600) {
        return Usage("bad --seconds");
      }
      opts.seconds = static_cast<double>(seconds);
    } else if (arg == "--trace") {
      if (!ParseUint(val, &trace) || trace > 1) return Usage("bad --trace");
      opts.trace = trace == 1;
    } else if (arg == "--out-dir") {
      opts.out_dir = val;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || seconds == 0) return Usage("--seed and --seconds are required");

  const std::vector<std::string> knobs = SetApqVariables();
  if (!knobs.empty()) {
    std::string names;
    for (const std::string& k : knobs) names += " " + k;
    std::fprintf(stderr,
                 "perfbench: refusing to measure with APQ_* variables set "
                 "(they change what runs):%s\n",
                 names.c_str());
    return 2;
  }

  bool (*run)(const Options&, Report*) = nullptr;
  if (opts.workload == "tpch_exec") run = RunTpchExec;
  if (opts.workload == "tpcds_adapt") run = RunTpcdsAdapt;
  if (opts.workload == "tpch_serve") run = RunTpchServe;
  if (run == nullptr) return Usage("unknown --workload");

  Spans().set_enabled(opts.trace);
  Report report;
  if (!run(opts, &report)) {
    report.PrintFailures(stderr);
    std::fprintf(stderr, "perfbench: workload %s could not be set up\n",
                 opts.workload.c_str());
    return 1;
  }
  report.Set("error_frac",
             report.attempted() > 0
                 ? static_cast<double>(report.failed()) / report.attempted()
                 : 1,
             report.attempted());
  if (opts.trace) {
    const auto& spans = Spans().spans();
    for (const auto& [layer, ns] : SelfTimeByLayer(spans)) {
      const std::string name = "self_s." + layer;
      bool declared = false;
      for (const MetricDef& d : PerLayerMetrics()) declared |= name == d.name;
      if (declared) report.Set(name, ns / 1e9, spans.size());
    }
    const std::string path = opts.out_dir + "/spans-" + opts.workload +
                             "-seed" + std::to_string(opts.seed) + ".json";
    if (!Spans().WriteJson(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
  }
  report.Print(opts.trace ? PerLayerMetrics() : EndToEndMetrics());
  return 0;
}

// What one benchmark run reports: the declared metrics (with unit and sample
// count), the correctness tally, and the host/config fingerprint.
//
// The metric tables below mirror BENCHMARK.json; perfbench/run.py refuses a
// result whose metric names differ from the declaration.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Metrics of the untraced run (--trace 0), measured on every workload.
const std::vector<MetricDef>& EndToEndMetrics();
/// Metrics of the traced run (--trace 1); 0 where a layer does no work on
/// the workload.
const std::vector<MetricDef>& PerLayerMetrics();

class Report {
 public:
  /// Records a metric; `samples` is how many measurements the value
  /// summarizes (1 for an exact count).
  void Set(const std::string& name, double value, uint64_t samples);
  double Get(const std::string& name) const;

  /// Free-form lines for the human report (not part of the JSON result).
  void Note(const std::string& line) { notes_.push_back(line); }

  /// Counts one checked operation; `ok` = its output was correct.
  void Check(bool ok, const std::string& what);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// Prints the first failed checks (up to ten) to `out`.
  void PrintFailures(std::FILE* out) const;

  /// Prints the human report (every recorded metric with unit and sample
  /// count) followed by the one-line JSON result holding `defs`.
  void Print(const std::vector<MetricDef>& defs) const;

 private:
  struct Value {
    double value = 0;
    uint64_t samples = 0;
  };
  std::map<std::string, Value> values_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> first_failures_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_

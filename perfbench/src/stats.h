// Statistics the benchmark reports with: medians, geomeans, the tail
// percentile rule, the served ladder's max-rate rule, and self time from
// spans. Pure functions over plain vectors so selftest.cc can pin each rule.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Median (mean of the middle two for even sizes); 0 for an empty sample.
double Median(std::vector<double> v);

/// Geometric mean of positive values; 0 when empty or any value is <= 0.
double Geomean(const std::vector<double>& v);

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
double Percentile(std::vector<double> v, double q);

/// \brief A tail figure: the highest of p99.9 / p99 / p90 / p50 that has at
/// least ten samples beyond it. `q` = 0 when even p50 is unsupported.
struct Tail {
  double q = 0;
  double value = 0;
};
Tail TailPercentile(const std::vector<double>& v);

/// True when p(q) of an n-sample has at least ten samples beyond it.
bool PercentileSupported(size_t n, double q);

/// \brief One rung of the served open-loop ladder.
struct LadderStep {
  double rate_qps = 0;
  bool valid = true;       // generator kept its schedule
  uint64_t errors = 0;     // ERR responses, wrong results, lost responses
  double heavy_p90_ms = 0;
  bool backlog_growing = false;
};

/// Highest rate of a ladder (ascending rates) whose rung and every lower
/// rung is valid, error-free, keeps heavy p90 <= limit_ms and shows no
/// growing backlog. 0 when the lowest rung already fails.
double MaxLadderRate(const std::vector<LadderStep>& steps, double limit_ms);

/// True when the outstanding-request samples of one rung trend upwards: the
/// mean of the last quarter exceeds twice the mean of the first quarter plus
/// two requests (small absolute backlogs are queueing, not growth).
bool BacklogGrowing(const std::vector<double>& outstanding);

/// \brief One recorded span (see spans.h). `parent` indexes the span list
/// (-1 = root); times are nanoseconds on one clock.
struct SpanRec {
  std::string name;
  double start_ns = 0;
  double end_ns = 0;
  int parent = -1;
  uint64_t request = 0;
};

/// Self time per layer, in ns: for each span, its duration minus the part of
/// its interval that its children cover (overlapping children count once),
/// summed per layer. A span's layer is its name up to the first '.'.
std::map<std::string, double> SelfTimeByLayer(const std::vector<SpanRec>& spans);

/// Runs every rule above against hand-computed cases; prints the first
/// failure to stderr and returns false on any mismatch.
bool SelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) {
    if (!(x > 0)) return 0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

namespace {

// 1-based nearest rank of percentile q in an n-sample.
size_t NearestRank(size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::min(n, std::max<size_t>(1, static_cast<size_t>(r)));
}

}  // namespace

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[NearestRank(v.size(), q) - 1];
}

bool PercentileSupported(size_t n, double q) {
  return n > 0 && n - NearestRank(n, q) >= 10;
}

Tail TailPercentile(const std::vector<double>& v) {
  for (double q : {0.999, 0.99, 0.9, 0.5}) {
    if (PercentileSupported(v.size(), q)) return Tail{q, Percentile(v, q)};
  }
  return Tail{};
}

double MaxLadderRate(const std::vector<LadderStep>& steps, double limit_ms) {
  double best = 0;
  for (const LadderStep& s : steps) {
    if (!s.valid || s.errors > 0 || s.heavy_p90_ms > limit_ms ||
        s.backlog_growing) {
      break;
    }
    best = s.rate_qps;
  }
  return best;
}

bool BacklogGrowing(const std::vector<double>& outstanding) {
  const size_t quarter = outstanding.size() / 4;
  if (quarter == 0) return false;
  double first = 0;
  double last = 0;
  for (size_t i = 0; i < quarter; ++i) {
    first += outstanding[i];
    last += outstanding[outstanding.size() - 1 - i];
  }
  first /= static_cast<double>(quarter);
  last /= static_cast<double>(quarter);
  return last > 2 * first + 2;
}

std::map<std::string, double> SelfTimeByLayer(
    const std::vector<SpanRec>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p >= 0 && static_cast<size_t>(p) < spans.size()) {
      children[p].push_back(static_cast<int>(i));
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    std::vector<std::pair<double, double>> cover;
    for (int c : children[i]) {
      const double b = std::max(spans[c].start_ns, s.start_ns);
      const double e = std::min(spans[c].end_ns, s.end_ns);
      if (e > b) cover.emplace_back(b, e);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0;
    double cur_b = 0;
    double cur_e = -1;
    for (const auto& [b, e] : cover) {
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += std::max(0.0, (s.end_ns - s.start_ns) - covered);
  }
  return self;
}

// ---- self-test --------------------------------------------------------------

namespace {

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9 * (1 + std::fabs(b)); }

bool Expect(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "perfbench self-test failed: %s\n", what);
  return ok;
}

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // unsorted
  return v;
}

}  // namespace

bool SelfTest() {
  bool ok = true;
  ok &= Expect(Median({3, 1, 2}) == 2, "median of odd sample");
  ok &= Expect(Median({4, 1, 3, 2}) == 2.5, "median of even sample");
  ok &= Expect(Median({}) == 0, "median of empty sample");
  ok &= Expect(Near(Geomean({1, 4, 16}), 4), "geomean");
  ok &= Expect(Geomean({2, 0}) == 0, "geomean with a zero");

  // Nearest rank: p90 of 1..100 is 90; p99 of 1..1000 is 990.
  ok &= Expect(Percentile(Iota(100), 0.9) == 90, "p90 nearest rank");
  ok &= Expect(Percentile(Iota(1000), 0.99) == 990, "p99 nearest rank");
  // Ten samples must lie beyond the reported percentile.
  ok &= Expect(!PercentileSupported(19, 0.5), "p50 needs 20 samples");
  ok &= Expect(PercentileSupported(20, 0.5), "p50 at 20 samples");
  ok &= Expect(!PercentileSupported(99, 0.9), "p90 needs 100 samples");
  ok &= Expect(PercentileSupported(100, 0.9), "p90 at 100 samples");
  ok &= Expect(PercentileSupported(1000, 0.99), "p99 at 1000 samples");
  ok &= Expect(!PercentileSupported(999, 0.99), "p99 below 1000 samples");
  const Tail t1 = TailPercentile(Iota(150));
  ok &= Expect(t1.q == 0.9 && t1.value == 135, "tail of 150 samples is p90");
  const Tail t2 = TailPercentile(Iota(1000));
  ok &= Expect(t2.q == 0.99 && t2.value == 990, "tail of 1000 samples is p99");
  ok &= Expect(TailPercentile(Iota(10000)).q == 0.999, "tail of 10000 is p99.9");
  ok &= Expect(TailPercentile(Iota(19)).q == 0, "no tail below 20 samples");

  // Ladder: the highest rung whose rung and every lower rung passes.
  std::vector<LadderStep> ladder = {{80, true, 0, 40, false},
                                    {160, true, 0, 60, false},
                                    {320, true, 0, 140, false}};
  ok &= Expect(MaxLadderRate(ladder, 100) == 160, "ladder stops at p90 limit");
  ladder[2].heavy_p90_ms = 90;
  ok &= Expect(MaxLadderRate(ladder, 100) == 320, "ladder passes every rung");
  ladder[1].backlog_growing = true;
  ok &= Expect(MaxLadderRate(ladder, 100) == 80, "growing backlog fails rung");
  ladder[1].backlog_growing = false;
  ladder[1].errors = 1;
  ok &= Expect(MaxLadderRate(ladder, 100) == 80, "an error fails the rung");
  ladder[1].errors = 0;
  ladder[0].valid = false;
  ok &= Expect(MaxLadderRate(ladder, 100) == 0, "late generator voids rung");
  ok &= Expect(!BacklogGrowing({1, 2, 1, 3, 2, 1, 2, 3}), "steady backlog");
  ok &= Expect(BacklogGrowing({1, 1, 4, 8, 12, 16, 20, 30}), "growing backlog");
  ok &= Expect(!BacklogGrowing({0, 0, 0}), "too few backlog samples");

  // Self time: root [0,100) with children [10,30) and [20,50) (overlapping,
  // covering 40) and [90,120) (clipped to 10); the first child has a child
  // [12,18).
  std::vector<SpanRec> spans = {{"bench.pass", 0, 100, -1, 0},
                                {"exec.a", 10, 30, 0, 1},
                                {"exec.b", 20, 50, 0, 2},
                                {"sched.c", 90, 120, 0, 3},
                                {"profile.d", 12, 18, 1, 1}};
  auto self = SelfTimeByLayer(spans);
  ok &= Expect(Near(self["bench"], 50), "root self time");
  ok &= Expect(Near(self["exec"], 14 + 30), "child self time");
  ok &= Expect(Near(self["sched"], 30), "leaf self time");
  ok &= Expect(Near(self["profile"], 6), "grandchild self time");
  return ok;
}

}  // namespace perfbench

// Morsel-driven intra-operator execution: the work-stealing scheduler, the
// morsel source, and — above all — bit-identity of morsel execution against
// whole-column kernels and the scalar interpreter across morsel sizes, worker
// counts, table shapes, and predicate selectivities.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <utility>
#include <thread>

#include "exec/compare.h"
#include "exec/evaluator.h"
#include "exec/morsel_source.h"
#include "plan/builder.h"
#include "sched/morsel_scheduler.h"
#include "util/hash_clock.h"
#include "util/rng.h"
#include "workload/tpch.h"

namespace apq {
namespace {

// ---- MorselSource ----------------------------------------------------------

TEST(MorselSourceTest, CoversRangeExactlyOnce) {
  MorselSource src(100, 1000, 128);
  ASSERT_EQ(src.num_morsels(), 8u);  // 900 rows / 128
  uint64_t expect_begin = 100;
  uint64_t covered = 0;
  for (size_t i = 0; i < src.num_morsels(); ++i) {
    Morsel m = src.morsel(i);
    EXPECT_EQ(m.index, i);
    EXPECT_EQ(m.begin, expect_begin);
    EXPECT_GT(m.end, m.begin);
    EXPECT_LE(m.size(), 128u);
    expect_begin = m.end;
    covered += m.size();
  }
  EXPECT_EQ(expect_begin, 1000u);
  EXPECT_EQ(covered, 900u);
}

TEST(MorselSourceTest, EmptyAndOversizedInputs) {
  EXPECT_EQ(MorselSource(5, 5, 64).num_morsels(), 0u);
  EXPECT_EQ(MorselSource(0, 0, 64).num_morsels(), 0u);
  // Morsel larger than the input: one morsel, the whole input.
  MorselSource big(0, 10, 1 << 20);
  ASSERT_EQ(big.num_morsels(), 1u);
  EXPECT_EQ(big.morsel(0).begin, 0u);
  EXPECT_EQ(big.morsel(0).end, 10u);
  // morsel_rows = 0 falls back to the default, never divides by zero.
  EXPECT_EQ(MorselSource(0, 10, 0).num_morsels(), 1u);
}

// ---- MorselScheduler -------------------------------------------------------

TEST(MorselSchedulerTest, RunsEveryIndexExactlyOnce) {
  MorselScheduler sched(4);
  EXPECT_EQ(sched.num_workers(), 4);
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  sched.ParallelFor(n, [&](size_t i, int) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  EXPECT_EQ(sched.total_tasks(), n);
}

TEST(MorselSchedulerTest, ZeroTasksReturnsImmediately) {
  MorselScheduler sched(2);
  bool ran = false;
  sched.ParallelFor(0, [&](size_t, int) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(MorselSchedulerTest, ReportsValidWorkerIds) {
  MorselScheduler sched(3);
  std::vector<std::atomic<int>> seen(4);
  for (auto& s : seen) s.store(0);
  sched.ParallelFor(64, [&](size_t, int worker) {
    ASSERT_GE(worker, MorselScheduler::kCallerWorker);
    ASSERT_LT(worker, 3);
    seen[worker + 1].fetch_add(1);  // slot 0 = caller
  });
  int total = 0;
  for (auto& s : seen) total += s.load();
  EXPECT_EQ(total, 64);
}

TEST(MorselSchedulerTest, ConcurrentJobsShareOneFleet) {
  // The multi-query scenario: several threads issue ParallelFor against one
  // scheduler; every job must complete with every index run exactly once.
  MorselScheduler sched(4);
  constexpr int kJobs = 6;
  constexpr size_t kTasks = 200;
  std::vector<std::vector<std::atomic<int>>> hits(kJobs);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kTasks);
    for (auto& a : h) a.store(0);
  }
  std::vector<std::thread> queries;
  for (int j = 0; j < kJobs; ++j) {
    queries.emplace_back([&sched, &hits, j] {
      sched.ParallelFor(kTasks,
                        [&hits, j](size_t i, int) { hits[j][i].fetch_add(1); });
    });
  }
  for (auto& q : queries) q.join();
  for (int j = 0; j < kJobs; ++j) {
    for (size_t i = 0; i < kTasks; ++i) {
      EXPECT_EQ(hits[j][i].load(), 1) << "job " << j << " task " << i;
    }
  }
  EXPECT_EQ(sched.total_tasks(), static_cast<uint64_t>(kJobs) * kTasks);
}

TEST(MorselSchedulerTest, NestedParallelForRunsEveryIndexOnce) {
  // One level of nesting, the DAG runner's shape: outer tasks (plan nodes)
  // may issue their own ParallelFor (their morsels) on the same fleet. Every
  // outer and inner index must run exactly once and the fleet must not
  // deadlock even with one worker. Inner tasks and the outer tasks that did
  // not nest are counted once each, on a worker or on a calling thread; an
  // outer task that nested is a container and is not counted.
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 64;
  for (int workers : {1, 2, 4}) {
    MorselScheduler sched(workers);
    std::vector<std::atomic<int>> outer_hits(kOuter);
    std::vector<std::atomic<int>> inner_hits(kOuter * kInner);
    for (auto& h : outer_hits) h.store(0);
    for (auto& h : inner_hits) h.store(0);
    sched.ParallelFor(kOuter, [&](size_t o, int) {
      outer_hits[o].fetch_add(1);
      if (o % 2 == 1) return;  // a node that ran whole-column
      sched.ParallelFor(kInner, [&, o](size_t i, int) {
        inner_hits[o * kInner + i].fetch_add(1);
      });
    });
    for (size_t o = 0; o < kOuter; ++o) {
      EXPECT_EQ(outer_hits[o].load(), 1) << "workers=" << workers;
    }
    for (size_t i = 0; i < inner_hits.size(); ++i) {
      EXPECT_EQ(inner_hits[i].load(), (i / kInner) % 2 == 0 ? 1 : 0)
          << "workers=" << workers << " " << i;
    }
    uint64_t worker_tasks = 0;
    for (const auto& w : sched.worker_stats()) worker_tasks += w.tasks;
    EXPECT_EQ(worker_tasks + sched.caller_tasks(), sched.total_tasks());
    EXPECT_EQ(sched.total_tasks(), kOuter / 2 + kOuter / 2 * kInner)
        << "workers=" << workers;
  }
}

TEST(MorselSchedulerTest, BusyTimeCountsInnerTasksOnce) {
  // A container task's duration covers the inner tasks it ran and its wait
  // for the rest; counting it too would count that time twice. Busy time,
  // workers and callers together, must be the inner tasks' own time.
  constexpr size_t kInner = 8;
  for (int workers : {1, 2, 4}) {
    MorselScheduler sched(workers);
    std::atomic<uint64_t> inner_ns{0};
    sched.ParallelFor(1, [&](size_t, int) {
      sched.ParallelFor(kInner, [&](size_t, int) {
        const double t0 = NowNs();
        std::this_thread::sleep_for(std::chrono::milliseconds(4));
        inner_ns.fetch_add(static_cast<uint64_t>(NowNs() - t0));
      });
    });
    uint64_t busy = sched.caller_busy_ns();
    for (const auto& w : sched.worker_stats()) busy += w.busy_ns;
    EXPECT_GE(busy, inner_ns.load()) << "workers=" << workers;
    // At most `workers` threads share the 32 ms of inner work, so the
    // container alone lasts at least 8 ms; bookkeeping outside the timed
    // sleeps is microseconds.
    EXPECT_LT(busy, inner_ns.load() + 4'000'000) << "workers=" << workers;
    EXPECT_EQ(sched.total_tasks(), kInner) << "workers=" << workers;
  }
}

TEST(MorselSchedulerTest, WorkerStatsAccountForAllTasks) {
  MorselScheduler sched(2);
  sched.ParallelFor(128, [](size_t, int) {});
  uint64_t counted = sched.caller_tasks();
  for (const auto& w : sched.worker_stats()) counted += w.tasks;
  EXPECT_EQ(counted, 128u);
  EXPECT_EQ(counted, sched.total_tasks());
}

// ---- differential: morsel vs whole-column vs scalar ------------------------

// The morsel sizes the acceptance criteria call out: pathological (1), odd
// (7), sub-default (4096), default (64K), and larger than any test table.
const uint64_t kMorselSizes[] = {1, 7, 4096, 64 * 1024, 1 << 30};

class MorselDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(7);
    const uint64_t n = 20000;
    std::vector<int64_t> iv(n);
    std::vector<double> fv(n);
    for (auto& v : iv) v = rng.UniformRange(0, 999);
    for (auto& v : fv) v = rng.NextDouble();
    ints_ = Column::MakeInt64("ints", std::move(iv));
    floats_ = Column::MakeFloat64("floats", std::move(fv));
  }

  // select(ints) -> select(floats, candidates) -> fetchjoin(floats): the
  // three morselized operators in one pipeline.
  QueryPlan Pipeline(int64_t hi, double fhi) {
    PlanBuilder b("pipeline");
    int s1 = b.Select(ints_.get(), Predicate::RangeI64(0, hi));
    int s2 = b.Select(floats_.get(), Predicate::RangeF64(0.0, fhi), s1);
    int f = b.FetchJoin(floats_.get(), s2);
    return b.Result(f);
  }

  // Reference = scalar interpreter; baseline = whole-column kernels; subject
  // = morsel execution at every (morsel size x worker count) combination.
  void ExpectMorselMatches(const QueryPlan& plan) {
    Evaluator scalar(ExecOptions{});
    scalar.set_use_kernels(false);
    Evaluator whole;  // kernels; test tables fit in one default morsel
    EvalResult ref, base;
    ASSERT_TRUE(scalar.Execute(plan, &ref).ok());
    ASSERT_TRUE(whole.Execute(plan, &base).ok());
    ASSERT_EQ(DiffIntermediates(ref.result, base.result), "");

    for (uint64_t rows : kMorselSizes) {
      for (int workers : {1, 2, 4, 8}) {
        ExecOptions o;
        o.morsel_rows = rows;
        Evaluator morsel(o, std::make_shared<MorselScheduler>(workers));
        EvalResult got;
        ASSERT_TRUE(morsel.Execute(plan, &got).ok())
            << "rows=" << rows << " workers=" << workers;
        EXPECT_EQ(DiffIntermediates(base.result, got.result), "")
            << "rows=" << rows << " workers=" << workers;
        ASSERT_EQ(base.metrics.size(), got.metrics.size());
        for (size_t i = 0; i < base.metrics.size(); ++i) {
          EXPECT_EQ(base.metrics[i].tuples_in, got.metrics[i].tuples_in);
          EXPECT_EQ(base.metrics[i].tuples_out, got.metrics[i].tuples_out);
          EXPECT_EQ(base.metrics[i].random_accesses,
                    got.metrics[i].random_accesses);
        }
      }
    }
  }

  ColumnPtr ints_, floats_;
};

TEST_F(MorselDifferentialTest, MidSelectivityPipeline) {
  ExpectMorselMatches(Pipeline(499, 0.5));
}

TEST_F(MorselDifferentialTest, AllPassPredicate) {
  ExpectMorselMatches(Pipeline(999, 1.0));
}

TEST_F(MorselDifferentialTest, AllFailPredicate) {
  ExpectMorselMatches(Pipeline(-1, 0.5));
}

TEST_F(MorselDifferentialTest, EmptyTable) {
  auto empty_i = Column::MakeInt64("ei", {});
  auto empty_f = Column::MakeFloat64("ef", {});
  PlanBuilder b("empty");
  int s = b.Select(empty_i.get(), Predicate::RangeI64(0, 10));
  int f = b.FetchJoin(empty_f.get(), s);
  ExpectMorselMatches(b.Result(f));
}

TEST_F(MorselDifferentialTest, LikePredicateOverDictionary) {
  const std::vector<std::string> fruit = {"apple",   "banana", "cherry",
                                          "apricot", "plum",   "peach"};
  std::vector<std::string> data;
  data.reserve(18000);
  for (int i = 0; i < 3000; ++i) {
    data.insert(data.end(), fruit.begin(), fruit.end());
  }
  auto strs = Column::MakeString("s", data);
  PlanBuilder b("like");
  int s = b.Select(strs.get(), Predicate::Like("ap"));
  ExpectMorselMatches(b.Result(s));
}

TEST_F(MorselDifferentialTest, PerMorselTupleCountsSumToOperatorCounts) {
  QueryPlan plan = Pipeline(499, 0.5);
  ExecOptions o;
  o.morsel_rows = 1024;
  Evaluator eval(o, std::make_shared<MorselScheduler>(4));
  EvalResult er;
  ASSERT_TRUE(eval.Execute(plan, &er).ok());
  int morselized_ops = 0;
  for (const auto& m : er.metrics) {
    if (m.morsels.empty()) continue;
    ++morselized_ops;
    uint64_t in = 0, out = 0;
    for (const auto& ms : m.morsels) {
      in += ms.tuples_in;
      out += ms.tuples_out;
    }
    EXPECT_EQ(in, m.tuples_in) << "node " << m.node_id;
    EXPECT_EQ(out, m.tuples_out) << "node " << m.node_id;
  }
  // 20000 rows / 1024 per morsel: the dense select (and the candidate stages
  // while their inputs stay above one morsel) must have split — unless an
  // APQ_FORCE_MORSELS override raised the morsel size past the table.
  if (eval.EffectiveMorselRows() < 20000) {
    EXPECT_GE(morselized_ops, 1);
  }
}

TEST_F(MorselDifferentialTest, StrictMisalignmentReportsSameErrorAsSerial) {
  // A sliced fetch-join under kStrict whose candidates cross the slice: the
  // morsel path must fail with exactly the whole-column kernel's error.
  PlanBuilder b("strict");
  int s = b.Select(ints_.get(), Predicate::RangeI64(0, 999));
  int f = b.FetchJoin(floats_.get(), s);
  QueryPlan plan = b.Result(f);
  PlanNode& fetch = plan.node(f);
  fetch.has_slice = true;
  fetch.slice = RowRange{0, 5000};
  fetch.align = AlignPolicy::kStrict;

  Evaluator whole;
  EvalResult er;
  Status serial_st = whole.Execute(plan, &er);
  ASSERT_FALSE(serial_st.ok());

  for (uint64_t rows : kMorselSizes) {
    ExecOptions o;
    o.morsel_rows = rows;
    Evaluator morsel(o, std::make_shared<MorselScheduler>(4));
    EvalResult er2;
    Status st = morsel.Execute(plan, &er2);
    ASSERT_FALSE(st.ok()) << "rows=" << rows;
    EXPECT_EQ(st.code(), serial_st.code()) << "rows=" << rows;
    EXPECT_EQ(st.message(), serial_st.message()) << "rows=" << rows;
  }
}

TEST_F(MorselDifferentialTest, ScalarInterpreterIsNeverMorselized) {
  ExecOptions o;
  o.use_kernels = false;
  o.morsel_rows = 64;  // must be ignored without kernels
  Evaluator eval(o);
  EvalResult er;
  ASSERT_TRUE(eval.Execute(Pipeline(499, 0.5), &er).ok());
  for (const auto& m : er.metrics) EXPECT_TRUE(m.morsels.empty());
}

// ---- per-morsel metrics (what the skew-aware mutator reads) ----------------

// The per-morsel histogram of an operator over `n` input positions split
// every `rows`: `out(b, e)` counts the outputs of positions [b, e) and
// `domain(b, e)` gives their base-row domain. An input of one morsel runs
// whole-column and reports no histogram.
template <typename Out, typename Domain>
std::vector<MorselMetrics> ExpectedMorsels(uint64_t n, uint64_t rows, Out out,
                                           Domain domain) {
  std::vector<MorselMetrics> want;
  if (n <= rows) return want;
  for (uint64_t b = 0; b < n; b += rows) {
    const uint64_t e = std::min(n, b + rows);
    const auto [db, de] = domain(b, e);
    want.push_back(MorselMetrics{e - b, out(b, e), 0, -1, db, de});
  }
  return want;
}

// The domain of id-list positions [b, e): [ids[b], ids[e-1] + 1), withheld
// as (0, 0) when it crosses `slice`.
std::pair<uint64_t, uint64_t> IdDomain(const std::vector<oid>& ids,
                                       uint64_t b, uint64_t e, RowRange slice) {
  const uint64_t db = ids[b];
  const uint64_t de = ids[e - 1] + 1;
  if (db < slice.begin || de > slice.end) return {0, 0};
  return {db, de};
}

void ExpectMorselsEq(const std::vector<MorselMetrics>& want,
                     const OpMetrics& got, const std::string& where) {
  ASSERT_EQ(got.morsels.size(), want.size()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    const MorselMetrics& g = got.morsels[i];
    EXPECT_EQ(g.tuples_in, want[i].tuples_in) << where << " morsel " << i;
    EXPECT_EQ(g.tuples_out, want[i].tuples_out) << where << " morsel " << i;
    EXPECT_EQ(g.domain_begin, want[i].domain_begin) << where << " morsel " << i;
    EXPECT_EQ(g.domain_end, want[i].domain_end) << where << " morsel " << i;
  }
}

const OpMetrics& MetricsOf(const EvalResult& er, int node_id) {
  for (const auto& m : er.metrics) {
    if (m.node_id == node_id) return m;
  }
  ADD_FAILURE() << "no metrics for node " << node_id;
  static const OpMetrics none;
  return none;
}

class MorselMetricsTest : public MorselDifferentialTest {
 protected:
  // Runs `plan` at morsel_rows 7 and 4096 on 1- and 4-worker fleets and
  // hands each result, with the rows per morsel node `id` actually used (an
  // APQ_FORCE_MORSELS override wins), to `check`.
  template <typename Check>
  void ForEachFleet(const QueryPlan& plan, int id, Check check) {
    for (uint64_t rows : {uint64_t{7}, uint64_t{4096}}) {
      for (int workers : {1, 4}) {
        ExecOptions o;
        o.morsel_rows = rows;
        Evaluator eval(o, std::make_shared<MorselScheduler>(workers));
        EvalResult er;
        ASSERT_TRUE(eval.Execute(plan, &er).ok())
            << "rows=" << rows << " workers=" << workers;
        check(er, eval.MorselRowsForNode(id),
              "rows=" + std::to_string(rows) +
                  " workers=" + std::to_string(workers));
      }
    }
  }

  // Checks a fetch-join over `ids` into `col` restricted to `slice` when
  // `sliced`: kAdjust drops out-of-slice ids, every other form emits one
  // value per id.
  void CheckFetchJoin(const QueryPlan& plan, int fetch, int input,
                      FetchSide side) {
    const PlanNode& node = plan.node(fetch);
    const RowRange slice = node.EffectiveRange();
    const bool clip = node.has_slice && node.align == AlignPolicy::kAdjust;
    ForEachFleet(plan, fetch, [&](const EvalResult& er, uint64_t rows,
                                  const std::string& where) {
      const Intermediate& in = er.intermediates.at(input);
      const std::vector<oid>& ids =
          side == FetchSide::kRight ? in.rrowids : in.rowids;
      auto out = [&](uint64_t b, uint64_t e) {
        uint64_t k = 0;
        for (uint64_t i = b; i < e; ++i) k += !clip || slice.Contains(ids[i]);
        return k;
      };
      const OpMetrics& m = MetricsOf(er, fetch);
      ExpectMorselsEq(ExpectedMorsels(ids.size(), rows, out,
                                      [&](uint64_t b, uint64_t e) {
                                        return IdDomain(ids, b, e, slice);
                                      }),
                      m, where);
      EXPECT_EQ(m.tuples_in, ids.size()) << where;
      EXPECT_EQ(m.random_accesses, out(0, ids.size())) << where;
      EXPECT_EQ(m.tuples_out, out(0, ids.size())) << where;
    });
  }
};

TEST_F(MorselMetricsTest, DenseSelectReportsRowRanges) {
  PlanBuilder b("dense");
  const Predicate pred = Predicate::RangeI64(0, 499);
  const int s = b.Select(ints_.get(), pred);
  const QueryPlan plan = b.Result(s);
  const auto& v = ints_->i64();
  ForEachFleet(plan, s, [&](const EvalResult& er, uint64_t rows,
                            const std::string& where) {
    auto out = [&](uint64_t b, uint64_t e) {
      uint64_t k = 0;
      for (uint64_t r = b; r < e; ++r) k += v[r] >= 0 && v[r] <= 499;
      return k;
    };
    const OpMetrics& m = MetricsOf(er, s);
    ExpectMorselsEq(ExpectedMorsels(v.size(), rows, out,
                                    [](uint64_t b, uint64_t e) {
                                      return std::make_pair(b, e);
                                    }),
                    m, where);
    EXPECT_EQ(m.tuples_out, out(0, v.size())) << where;
    EXPECT_EQ(m.random_accesses, 0u) << where;
  });
}

TEST_F(MorselMetricsTest, CandidateSelectWithholdsDomainsCrossingItsSlice) {
  PlanBuilder b("cand");
  const int s1 = b.Select(ints_.get(), Predicate::RangeI64(0, 499));
  const int s2 = b.Select(floats_.get(), Predicate::RangeF64(0.0, 0.5), s1);
  QueryPlan plan = b.Result(s2);
  // The candidates span the whole table, so morsels straddling either slice
  // bound (and all those outside it) must report no domain.
  const RowRange slice{5003, 12011};
  plan.node(s2).has_slice = true;
  plan.node(s2).slice = slice;
  const auto& f = floats_->f64();
  ForEachFleet(plan, s2, [&](const EvalResult& er, uint64_t rows,
                             const std::string& where) {
    const std::vector<oid>& ids = er.intermediates.at(s1).rowids;
    auto in_slice = [&](uint64_t b, uint64_t e) {
      uint64_t k = 0;
      for (uint64_t i = b; i < e; ++i) k += slice.Contains(ids[i]);
      return k;
    };
    auto out = [&](uint64_t b, uint64_t e) {
      uint64_t k = 0;
      for (uint64_t i = b; i < e; ++i) {
        k += slice.Contains(ids[i]) && f[ids[i]] >= 0.0 && f[ids[i]] <= 0.5;
      }
      return k;
    };
    const auto want = ExpectedMorsels(
        ids.size(), rows, out,
        [&](uint64_t b, uint64_t e) { return IdDomain(ids, b, e, slice); });
    const OpMetrics& m = MetricsOf(er, s2);
    ExpectMorselsEq(want, m, where);
    EXPECT_EQ(m.tuples_out, out(0, ids.size())) << where;
    EXPECT_EQ(m.random_accesses, in_slice(0, ids.size())) << where;
    // The slice really is crossed: some morsels withhold their domain, and
    // morsels small enough to fit inside the slice report theirs.
    size_t known = 0;
    for (const auto& w : want) known += w.domain_end > w.domain_begin;
    if (!want.empty()) EXPECT_LT(known, want.size()) << where;
    if (rows <= 512) EXPECT_GT(known, 0u) << where;
  });
}

TEST_F(MorselMetricsTest, FetchJoinUnsliced) {
  PlanBuilder b("fetch");
  const int s = b.Select(ints_.get(), Predicate::RangeI64(0, 499));
  const int f = b.FetchJoin(floats_.get(), s);
  CheckFetchJoin(b.Result(f), f, s, FetchSide::kLeft);
}

TEST_F(MorselMetricsTest, FetchJoinStrictSlice) {
  // Candidates from a select over [5000, 12000) all lie inside the strict
  // fetch slice, so the gather succeeds and every domain is known.
  PlanBuilder b("strict");
  const int s = b.Select(ints_.get(), Predicate::RangeI64(0, 499));
  const int f = b.FetchJoin(floats_.get(), s);
  QueryPlan plan = b.Result(f);
  plan.node(s).has_slice = true;
  plan.node(s).slice = RowRange{5000, 12000};
  plan.node(f).has_slice = true;
  plan.node(f).slice = RowRange{4000, 13000};
  plan.node(f).align = AlignPolicy::kStrict;
  CheckFetchJoin(plan, f, s, FetchSide::kLeft);
}

TEST_F(MorselMetricsTest, FetchJoinAdjustSlice) {
  PlanBuilder b("adjust");
  const int s = b.Select(ints_.get(), Predicate::RangeI64(0, 499));
  const int f = b.FetchJoin(floats_.get(), s);
  QueryPlan plan = b.Result(f);
  plan.node(f).has_slice = true;
  plan.node(f).slice = RowRange{5003, 12011};
  plan.node(f).align = AlignPolicy::kAdjust;
  CheckFetchJoin(plan, f, s, FetchSide::kLeft);
}

TEST_F(MorselMetricsTest, FetchJoinPairsFedOnTheRightSide) {
  // 1,500 inner keys over 0..999: outer rows match one or two inner rows,
  // in hash-chain order, so the right-side ids are not ascending.
  std::vector<int64_t> keys(1500);
  std::vector<double> payload(1500);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<int64_t>((i * 7) % 1000);
    payload[i] = static_cast<double>(i) * 0.5;
  }
  auto inner = Column::MakeInt64("inner", std::move(keys));
  auto pay = Column::MakeFloat64("pay", std::move(payload));
  PlanBuilder b("pairs");
  const int j = b.JoinLeaf(ints_.get(), inner.get());
  const int f = b.FetchJoin(pay.get(), j, FetchSide::kRight);
  CheckFetchJoin(b.Result(f), f, j, FetchSide::kRight);
}

// ---- wall-clock speedup (gated on real cores) ------------------------------

TEST(MorselSpeedupTest, MorselsBeatWholeColumnOnMulticore) {
  if (std::thread::hardware_concurrency() < 4) {
    GTEST_SKIP() << "needs >= 4 hardware threads; correctness/determinism "
                    "suites gate on this machine";
  }
  Rng rng(3);
  std::vector<int64_t> iv(1 << 24);  // 16M rows
  for (auto& v : iv) v = rng.UniformRange(0, 999);
  auto col = Column::MakeInt64("big", std::move(iv));
  PlanBuilder b("scan");
  int s = b.Select(col.get(), Predicate::RangeI64(0, 499));
  QueryPlan plan = b.Result(s);

  // Best-of-5 on both sides: on shared CI runners that report 4 hardware
  // threads a single sample loses to noisy neighbours; the minimum is the
  // contention-free estimate (morsel_test is also RUN_SERIAL under ctest).
  auto best_of = [&](Evaluator& eval) {
    double best = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
      EvalResult er;
      EXPECT_TRUE(eval.Execute(plan, &er).ok());
      best = std::min(best, er.wall_ns);
    }
    return best;
  };
  // One morsel = the whole column, run on the calling thread. Under an
  // APQ_FORCE_MORSELS override both sides split into the same morsels, and
  // the 1-worker fleet keeps this side's parallelism below the 4-worker
  // side's, so the comparison still measures scaling.
  ExecOptions whole_o;
  whole_o.morsel_rows = 1 << 24;
  Evaluator whole(whole_o, std::make_shared<MorselScheduler>(1));
  Evaluator morsel(ExecOptions{}, std::make_shared<MorselScheduler>(4));
  const double whole_ns = best_of(whole);
  const double morsel_ns = best_of(morsel);
  EXPECT_LT(morsel_ns, whole_ns)
      << "morsel-parallel dense select should beat whole-column on >= 4 cores";
}

// ---- shared scheduler across evaluators ------------------------------------

TEST(MorselSharingTest, EvaluatorsShareInjectedScheduler) {
  auto sched = std::make_shared<MorselScheduler>(2);
  Rng rng(11);
  std::vector<int64_t> iv(50000);
  for (auto& v : iv) v = rng.UniformRange(0, 99);
  auto col = Column::MakeInt64("c", std::move(iv));
  PlanBuilder b("q");
  int s = b.Select(col.get(), Predicate::RangeI64(0, 49));
  QueryPlan plan = b.Result(s);

  ExecOptions o;
  o.morsel_rows = 1024;
  Evaluator e1(o, sched), e2(o, sched);

  const uint64_t before = sched->total_tasks();
  std::thread t1([&] {
    EvalResult er;
    ASSERT_TRUE(e1.Execute(plan, &er).ok());
  });
  std::thread t2([&] {
    EvalResult er;
    ASSERT_TRUE(e2.Execute(plan, &er).ok());
  });
  t1.join();
  t2.join();
  // Both queries' morsels ran on the one injected fleet. The per-query count
  // follows the effective morsel size (APQ_FORCE_MORSELS may override it);
  // when the whole table fits in one morsel the evaluator takes the
  // whole-column path and schedules nothing.
  const uint64_t rows = e1.EffectiveMorselRows();
  const uint64_t per_query = (50000 + rows - 1) / rows;
  const uint64_t expected = per_query >= 2 ? 2 * per_query : 0;
  EXPECT_EQ(sched->total_tasks() - before, expected);
}

}  // namespace
}  // namespace apq

// Plan-DAG execution on the worker fleet: every wave of ready nodes (the
// exchange clones of a parallelized plan) runs concurrently, and each node's
// operator splits into morsels on the same fleet. Runs on fleets of 1, 2, 4
// and 8 workers must reproduce the 1-worker fleet exactly (same
// intermediates, same metrics order, same error), and errors must propagate
// cleanly out of worker threads.
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "adaptive/mutator.h"
#include "exec/compare.h"
#include "exec/evaluator.h"
#include "heuristic/parallelizer.h"
#include "plan/builder.h"
#include "sched/morsel_scheduler.h"
#include "workload/tpch.h"

namespace apq {
namespace {

const int kFleets[] = {1, 2, 4, 8};

std::shared_ptr<MorselScheduler> Fleet(int workers) {
  return std::make_shared<MorselScheduler>(workers);
}

// Whole-column kernels: one morsel covers any table in this suite.
ExecOptions WholeColumn() {
  ExecOptions o;
  o.morsel_rows = uint64_t{1} << 30;
  return o;
}

ExecOptions MorselRows(uint64_t rows) {
  ExecOptions o;
  o.morsel_rows = rows;
  return o;
}

class ParallelExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchConfig cfg;
    cfg.lineitem_rows = 6000;
    cat_ = Tpch::Generate(cfg);
  }

  // Executes `plan` on a 1-worker fleet and on fleets of 1, 2, 4 and 8
  // workers; all must succeed and agree on every reachable intermediate and
  // on the metrics order.
  void ExpectFleetsMatchOneWorker(const QueryPlan& plan,
                                  ExecOptions o = ExecOptions{}) {
    Evaluator one(o, Fleet(1));
    EvalResult a;
    ASSERT_TRUE(one.Execute(plan, &a).ok());
    for (int workers : kFleets) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      Evaluator fleet(o, Fleet(workers));
      EvalResult b;
      ASSERT_TRUE(fleet.Execute(plan, &b).ok());
      EXPECT_EQ(DiffIntermediates(a.result, b.result), "");
      ASSERT_EQ(a.intermediates.size(), b.intermediates.size());
      for (const auto& [id, inter] : a.intermediates) {
        ASSERT_TRUE(b.intermediates.count(id));
        EXPECT_EQ(DiffIntermediates(inter, b.intermediates.at(id)), "")
            << "node " << id;
      }
      // Metrics come back in topological order regardless of which worker
      // ran which node (the simulator depends on this ordering).
      ASSERT_EQ(a.metrics.size(), b.metrics.size());
      for (size_t i = 0; i < a.metrics.size(); ++i) {
        EXPECT_EQ(a.metrics[i].node_id, b.metrics[i].node_id) << i;
        EXPECT_EQ(a.metrics[i].tuples_out, b.metrics[i].tuples_out) << i;
        // Hash-build cost lands on the topologically-first join regardless
        // of which worker raced to build (both evaluators are cold here).
        EXPECT_EQ(a.metrics[i].hash_build_rows, b.metrics[i].hash_build_rows)
            << i;
      }
    }
  }

  std::shared_ptr<Catalog> cat_;
};

TEST_F(ParallelExecTest, HeuristicPlansReproduceSerialResults) {
  for (const auto& name : Tpch::QueryNames()) {
    auto serial_plan = Tpch::Query(*cat_, name);
    ASSERT_TRUE(serial_plan.ok()) << name;
    for (int dop : {2, 8}) {
      HeuristicParallelizer hp(HeuristicConfig{.dop = dop});
      auto plan = hp.Parallelize(serial_plan.ValueOrDie());
      ASSERT_TRUE(plan.ok()) << name;
      ExpectFleetsMatchOneWorker(plan.ValueOrDie());
    }
  }
}

TEST_F(ParallelExecTest, MutatedExchangePlanReproducesSerialResult) {
  auto q6 = Tpch::Q6(*cat_);
  ASSERT_TRUE(q6.ok());
  QueryPlan plan = q6.MoveValueOrDie();
  // Split the leaf select 4 ways: the clones are independent subtrees feeding
  // one exchange union, exactly the concurrency a node wave exploits.
  Mutator mutator;
  int sel = -1;
  for (int i = 0; i < plan.num_nodes(); ++i) {
    if (plan.node(i).kind == OpKind::kSelect) { sel = i; break; }
  }
  ASSERT_GE(sel, 0);
  ASSERT_TRUE(mutator.SplitNode(&plan, sel, 4).ok());
  ASSERT_TRUE(plan.Validate().ok());
  ExpectFleetsMatchOneWorker(plan);
}

TEST_F(ParallelExecTest, ExecutionIsDeterministicAcrossRunsAndFleets) {
  auto q14 = Tpch::Query(*cat_, "Q14");
  ASSERT_TRUE(q14.ok());
  HeuristicParallelizer hp(HeuristicConfig{.dop = 8});
  auto plan = hp.Parallelize(q14.ValueOrDie());
  ASSERT_TRUE(plan.ok());
  Evaluator one(ExecOptions{}, Fleet(1));
  EvalResult first;
  ASSERT_TRUE(one.Execute(plan.ValueOrDie(), &first).ok());
  for (int workers : kFleets) {
    Evaluator fleet(ExecOptions{}, Fleet(workers));
    for (int rep = 0; rep < 5; ++rep) {
      EvalResult again;
      ASSERT_TRUE(fleet.Execute(plan.ValueOrDie(), &again).ok());
      EXPECT_EQ(DiffIntermediates(first.result, again.result), "")
          << "workers=" << workers << " rep " << rep;
      ASSERT_EQ(first.metrics.size(), again.metrics.size());
      for (size_t i = 0; i < first.metrics.size(); ++i) {
        EXPECT_EQ(first.metrics[i].node_id, again.metrics[i].node_id) << i;
      }
    }
  }
}

TEST_F(ParallelExecTest, ErrorsPropagateFromWorkerThreads) {
  // Three independent leaf selects form the first wave, so they run
  // concurrently; two of them fail (LIKE on a non-string column). Every
  // fleet must return the same error — the failing node with the lowest
  // topological position — and stay usable afterwards.
  auto ints = Column::MakeInt64("ints", {1, 2, 3, 4});
  auto more = Column::MakeInt64("more", {5, 6, 7, 8});
  PlanBuilder b("bad");
  int good = b.Select(ints.get(), Predicate::RangeI64(2, 3));
  int bad1 = b.Select(ints.get(), Predicate::Like("x"));
  int bad2 = b.Select(more.get(), Predicate::Like("y"));
  int c0 = b.AggScalar(AggFn::kCount, good);
  int c1 = b.AggScalar(AggFn::kCount, bad1);
  int c2 = b.AggScalar(AggFn::kCount, bad2);
  int sum = b.Map2(MapFn::kAdd, b.Map2(MapFn::kAdd, c0, c1), c2);
  QueryPlan plan = b.Result(sum);

  Evaluator one(ExecOptions{}, Fleet(1));
  EvalResult er;
  const Status want = one.Execute(plan, &er);
  ASSERT_FALSE(want.ok());
  EXPECT_EQ(want.code(), StatusCode::kInvalidArgument);
  for (int workers : kFleets) {
    Evaluator fleet(ExecOptions{}, Fleet(workers));
    for (int rep = 0; rep < 5; ++rep) {
      EvalResult bad;
      const Status st = fleet.Execute(plan, &bad);
      ASSERT_FALSE(st.ok()) << "workers=" << workers;
      EXPECT_EQ(st.code(), want.code()) << "workers=" << workers;
      EXPECT_EQ(st.message(), want.message()) << "workers=" << workers;
    }
    // The evaluator must remain usable after a failed parallel run.
    PlanBuilder b2("good");
    int sel2 = b2.Select(ints.get(), Predicate::RangeI64(2, 3));
    QueryPlan plan2 = b2.Result(sel2);
    EvalResult er2;
    ASSERT_TRUE(fleet.Execute(plan2, &er2).ok());
    EXPECT_EQ(er2.result.rowids, (std::vector<oid>{1, 2}));
  }
}

TEST_F(ParallelExecTest, SharedHashCacheBuildsOnce) {
  auto q9 = Tpch::Query(*cat_, "Q9");
  ASSERT_TRUE(q9.ok());
  HeuristicParallelizer hp(HeuristicConfig{.dop = 8});
  auto plan = hp.Parallelize(q9.ValueOrDie());
  ASSERT_TRUE(plan.ok());
  Evaluator threaded(ExecOptions{}, Fleet(4));
  EvalResult er1, er2;
  ASSERT_TRUE(threaded.Execute(plan.ValueOrDie(), &er1).ok());
  ASSERT_TRUE(threaded.Execute(plan.ValueOrDie(), &er2).ok());
  uint64_t builds1 = 0, builds2 = 0;
  for (const auto& m : er1.metrics) builds1 += m.hash_build_rows;
  for (const auto& m : er2.metrics) builds2 += m.hash_build_rows;
  EXPECT_GT(builds1, 0u);
  EXPECT_EQ(builds2, 0u);  // second run: all inners cached
}

// ---- morsel-driven intra-operator execution --------------------------------

TEST_F(ParallelExecTest, MorselExecutionIsDeterministicAcrossWorkerCounts) {
  // An *unmutated* serial plan: in one morsel each operator runs on one
  // core; at 512 rows its dense select / fetch-join split across the fleet.
  // Results must be bit-identical to whole-column execution at every worker
  // count.
  for (const auto& name : Tpch::QueryNames()) {
    auto plan = Tpch::Query(*cat_, name);
    ASSERT_TRUE(plan.ok()) << name;
    Evaluator whole(WholeColumn());
    EvalResult base;
    ASSERT_TRUE(whole.Execute(plan.ValueOrDie(), &base).ok()) << name;
    for (int workers : kFleets) {
      // lineitem_rows = 6000: every dense scan splits.
      Evaluator morsel(MorselRows(512), Fleet(workers));
      EvalResult got;
      ASSERT_TRUE(morsel.Execute(plan.ValueOrDie(), &got).ok())
          << name << " workers=" << workers;
      EXPECT_EQ(DiffIntermediates(base.result, got.result), "")
          << name << " workers=" << workers;
      ASSERT_EQ(base.metrics.size(), got.metrics.size());
      for (size_t i = 0; i < base.metrics.size(); ++i) {
        EXPECT_EQ(base.metrics[i].tuples_out, got.metrics[i].tuples_out)
            << name << " workers=" << workers << " op " << i;
      }
    }
  }
}

TEST_F(ParallelExecTest, MorselsComposeWithNodeWaves) {
  // Both parallelism axes at once on one fleet: exchange clones run as one
  // node wave, each clone's scan splits into morsels (nested ParallelFor).
  auto q6 = Tpch::Q6(*cat_);
  ASSERT_TRUE(q6.ok());
  HeuristicParallelizer hp(HeuristicConfig{.dop = 4});
  auto plan = hp.Parallelize(q6.ValueOrDie());
  ASSERT_TRUE(plan.ok());
  for (int rep = 0; rep < 3; ++rep) {
    ExpectFleetsMatchOneWorker(plan.ValueOrDie(), MorselRows(256));
  }
}

TEST_F(ParallelExecTest, ConcurrentQueriesMultiplexOneScheduler) {
  // Two evaluators, two plans, one injected scheduler: the heavy-traffic
  // configuration. Every query's result must stay exact.
  auto sched = std::make_shared<MorselScheduler>(4);
  auto q6 = Tpch::Q6(*cat_);
  auto q14 = Tpch::Query(*cat_, "Q14");
  ASSERT_TRUE(q6.ok() && q14.ok());

  Evaluator whole;
  EvalResult base6, base14;
  ASSERT_TRUE(whole.Execute(q6.ValueOrDie(), &base6).ok());
  ASSERT_TRUE(whole.Execute(q14.ValueOrDie(), &base14).ok());

  Evaluator e6(MorselRows(512), sched), e14(MorselRows(512), sched);

  std::thread t6([&] {
    for (int rep = 0; rep < 4; ++rep) {
      EvalResult er;
      ASSERT_TRUE(e6.Execute(q6.ValueOrDie(), &er).ok());
      EXPECT_EQ(DiffIntermediates(base6.result, er.result), "");
    }
  });
  std::thread t14([&] {
    for (int rep = 0; rep < 4; ++rep) {
      EvalResult er;
      ASSERT_TRUE(e14.Execute(q14.ValueOrDie(), &er).ok());
      EXPECT_EQ(DiffIntermediates(base14.result, er.result), "");
    }
  });
  t6.join();
  t14.join();
  EXPECT_GT(sched->total_tasks(), 0u);
}

TEST_F(ParallelExecTest, ConcurrentFirstBuildsOfDifferentInnersDontSerialize) {
  // The per-column build latch: one plan with two joins over *different*
  // inner columns in one node wave — the two first builds run concurrently
  // (previously serialized under the single cache mutex). Each inner is
  // built exactly once and the cache stays warm afterwards.
  auto fk1 = Column::MakeInt64("fk1", std::vector<int64_t>(4000, 1));
  auto fk2 = Column::MakeInt64("fk2", std::vector<int64_t>(4000, 2));
  std::vector<int64_t> pk1v(512), pk2v(1024);
  for (size_t i = 0; i < pk1v.size(); ++i) pk1v[i] = static_cast<int64_t>(i);
  for (size_t i = 0; i < pk2v.size(); ++i) pk2v[i] = static_cast<int64_t>(i);
  auto pk1 = Column::MakeInt64("pk1", std::move(pk1v));
  auto pk2 = Column::MakeInt64("pk2", std::move(pk2v));

  PlanBuilder b("two_inners");
  int j1 = b.JoinLeaf(fk1.get(), pk1.get());
  int j2 = b.JoinLeaf(fk2.get(), pk2.get());
  int c1 = b.AggScalar(AggFn::kCount, j1);
  int c2 = b.AggScalar(AggFn::kCount, j2);
  int sum = b.Map2(MapFn::kAdd, c1, c2);
  QueryPlan plan = b.Result(sum);

  Evaluator threaded(ExecOptions{}, Fleet(4));
  EvalResult er;
  ASSERT_TRUE(threaded.Execute(plan, &er).ok());
  EXPECT_DOUBLE_EQ(er.result.scalar, 8000.0);
  uint64_t builds = 0;
  for (const auto& m : er.metrics) builds += m.hash_build_rows;
  EXPECT_EQ(builds, 512u + 1024u);  // both inners built, each exactly once
  EvalResult warm;
  ASSERT_TRUE(threaded.Execute(plan, &warm).ok());
  uint64_t warm_builds = 0;
  for (const auto& m : warm.metrics) warm_builds += m.hash_build_rows;
  EXPECT_EQ(warm_builds, 0u);
}

TEST_F(ParallelExecTest, ParallelAggProbeCoversTpchAcrossWorkerCounts) {
  // The exec/agg tier on the full query suite: group-by ingest, grouped
  // aggregation, and hash-join probe run morsel-parallel at every worker
  // count, and every query's result must stay exact. Across the suite at a
  // 256-row morsel size, at least one group-by and one join must actually
  // have split (the whole point of the tier).
  bool saw_groupby = false, saw_join = false;
  for (const auto& name : Tpch::QueryNames()) {
    auto plan = Tpch::Query(*cat_, name);
    ASSERT_TRUE(plan.ok()) << name;
    Evaluator whole(WholeColumn());
    EvalResult base;
    ASSERT_TRUE(whole.Execute(plan.ValueOrDie(), &base).ok()) << name;
    for (int workers : kFleets) {
      Evaluator par(MorselRows(256), Fleet(workers));
      EvalResult got;
      ASSERT_TRUE(par.Execute(plan.ValueOrDie(), &got).ok())
          << name << " workers=" << workers;
      EXPECT_EQ(DiffIntermediates(base.result, got.result), "")
          << name << " workers=" << workers;
      ASSERT_EQ(base.metrics.size(), got.metrics.size());
      for (size_t i = 0; i < base.metrics.size(); ++i) {
        EXPECT_EQ(base.metrics[i].tuples_out, got.metrics[i].tuples_out)
            << name << " workers=" << workers << " op " << i;
        if (got.metrics[i].morsels.empty()) continue;
        if (got.metrics[i].kind == OpKind::kGroupBy) saw_groupby = true;
        if (got.metrics[i].kind == OpKind::kJoin) saw_join = true;
      }
    }
  }
  EXPECT_TRUE(saw_groupby) << "no TPC-H group-by ingest ran morsel-parallel";
  EXPECT_TRUE(saw_join) << "no TPC-H join probe ran morsel-parallel";
}

TEST_F(ParallelExecTest, ParallelAggComposesWithNodeWaves) {
  // Exchange clones in one node wave while each clone's probe/ingest splits
  // on the same fleet — Q9 (join + group-by heavy) and Q14 (join heavy)
  // under both axes at once.
  for (const char* name : {"Q9", "Q14"}) {
    SCOPED_TRACE(name);
    auto q = Tpch::Query(*cat_, name);
    ASSERT_TRUE(q.ok());
    HeuristicParallelizer hp(HeuristicConfig{.dop = 4});
    auto plan = hp.Parallelize(q.ValueOrDie());
    ASSERT_TRUE(plan.ok());
    ExpectFleetsMatchOneWorker(plan.ValueOrDie(), MorselRows(256));
  }
}

TEST_F(ParallelExecTest, ParallelSortCoversOrderedTpchQueries) {
  // The exec/sort tier on the ordered queries (Q4 count-ordered, Q6/Q9/Q22
  // revenue-per-nation ordered). Their sorts order small grouped-aggregate
  // vectors (priorities, nations), so a tiny morsel size is what makes them
  // split; every query's result must stay exact at every worker count, and
  // at least one sort must actually have morselized.
  bool saw_sort = false;
  for (const char* name : {"Q4", "Q6", "Q9", "Q22"}) {
    auto plan = Tpch::Query(*cat_, name);
    ASSERT_TRUE(plan.ok()) << name;
    Evaluator whole(WholeColumn());
    EvalResult base;
    ASSERT_TRUE(whole.Execute(plan.ValueOrDie(), &base).ok()) << name;
    for (int workers : kFleets) {
      // 4-row morsels split even the 5-priority / 25-nation sorts.
      Evaluator par(MorselRows(4), Fleet(workers));
      EvalResult got;
      ASSERT_TRUE(par.Execute(plan.ValueOrDie(), &got).ok())
          << name << " workers=" << workers;
      EXPECT_EQ(DiffIntermediates(base.result, got.result), "")
          << name << " workers=" << workers;
      ASSERT_EQ(base.metrics.size(), got.metrics.size());
      for (size_t i = 0; i < base.metrics.size(); ++i) {
        EXPECT_EQ(base.metrics[i].tuples_out, got.metrics[i].tuples_out)
            << name << " workers=" << workers << " op " << i;
        if ((got.metrics[i].kind == OpKind::kSort ||
             got.metrics[i].kind == OpKind::kTopN) &&
            !got.metrics[i].morsels.empty()) {
          saw_sort = true;
        }
      }
    }
  }
  // APQ_FORCE_MORSELS overrides the 4-row morsel size; the tiny grouped
  // sorts only split when the override is absent (or just as small).
  if (Evaluator(MorselRows(4)).EffectiveMorselRows() <= 8) {
    EXPECT_TRUE(saw_sort) << "no TPC-H sort ran morsel-parallel";
  }
}

TEST_F(ParallelExecTest, WallClockIsReported) {
  auto q6 = Tpch::Q6(*cat_);
  ASSERT_TRUE(q6.ok());
  Evaluator eval;
  EvalResult er;
  ASSERT_TRUE(eval.Execute(q6.ValueOrDie(), &er).ok());
  EXPECT_GT(er.wall_ns, 0.0);
}

}  // namespace
}  // namespace apq

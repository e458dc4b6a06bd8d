// Tests for the basic / medium / advanced plan mutations: structure of the
// mutated plans and, crucially, result preservation (every mutation must
// leave the query answer unchanged).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "adaptive/mutator.h"
#include "exec/compare.h"
#include "exec/evaluator.h"
#include "plan/builder.h"
#include "util/rng.h"
#include "workload/tpcds.h"
#include "workload/tpch.h"

namespace apq {
namespace {

class MutatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(3);
    std::vector<int64_t> vals(20'000), fk(20'000);
    for (auto& v : vals) v = rng.UniformRange(0, 999);
    for (auto& v : fk) v = rng.UniformRange(0, 99);
    std::vector<double> weights(20'000);
    for (auto& w : weights) w = rng.NextDouble();
    std::vector<int64_t> pk(100);
    for (size_t i = 0; i < pk.size(); ++i) pk[i] = static_cast<int64_t>(i);
    vals_ = Column::MakeInt64("vals", std::move(vals));
    fk_ = Column::MakeInt64("fk", std::move(fk));
    w_ = Column::MakeFloat64("w", std::move(weights));
    pk_ = Column::MakeInt64("pk", std::move(pk));
    cfg_.min_partition_rows = 16;
  }

  Intermediate Eval(const QueryPlan& plan) {
    EvalResult er;
    Status st = eval_.Execute(plan, &er);
    EXPECT_TRUE(st.ok()) << st.ToString() << "\n" << plan.ToString();
    return er.result;
  }

  /// Profiles a plan with uniform durations so MutateMostExpensive can pick a
  /// victim; `boost` makes one node the most expensive.
  RunProfile FakeProfile(const QueryPlan& plan, int boost_node = -1) {
    RunProfile rp;
    auto topo = plan.TopologicalOrder();
    APQ_CHECK(topo.ok());
    double t = 0;
    for (int id : topo.ValueOrDie()) {
      OpProfile op;
      op.node_id = id;
      op.kind = plan.node(id).kind;
      op.start_ns = t;
      op.end_ns = t + (id == boost_node ? 1e6 : 1e3);
      op.core = 0;
      t = op.end_ns;
      rp.ops.push_back(op);
    }
    rp.makespan_ns = t;
    return rp;
  }

  QueryPlan SelectPlan() {
    PlanBuilder b("sel");
    int sel = b.Select(vals_.get(), Predicate::RangeI64(0, 99));
    int f = b.FetchJoin(w_.get(), sel);
    int sum = b.AggScalar(AggFn::kSum, f);
    return b.Result(sum);
  }

  QueryPlan JoinPlan() {
    PlanBuilder b("join");
    int sel = b.Select(vals_.get(), Predicate::RangeI64(0, 499));
    int fpk = b.FetchJoin(fk_.get(), sel);
    int jn = b.Join(fpk, pk_.get());
    int fw = b.FetchJoin(w_.get(), jn, FetchSide::kLeft);
    int sum = b.AggScalar(AggFn::kSum, fw);
    return b.Result(sum);
  }

  QueryPlan GroupByPlan() {
    PlanBuilder b("gb");
    int sel = b.Select(vals_.get(), Predicate::RangeI64(0, 499));
    int keys = b.FetchJoin(fk_.get(), sel);
    int vals = b.FetchJoin(w_.get(), sel);
    int gb = b.GroupBy(keys);
    int ag = b.AggGrouped(AggFn::kSum, gb, vals);
    return b.Result(ag);
  }

  ColumnPtr vals_, fk_, w_, pk_;
  Evaluator eval_;
  MutatorConfig cfg_;
};

TEST_F(MutatorTest, BasicSplitSelectPreservesResult) {
  QueryPlan plan = SelectPlan();
  Intermediate serial = Eval(plan);
  Mutator m(cfg_);
  int sel_id = 0;
  ASSERT_EQ(plan.node(sel_id).kind, OpKind::kSelect);
  ASSERT_TRUE(m.SplitNode(&plan, sel_id, 2).ok());
  ASSERT_TRUE(plan.Validate().ok());
  PlanStats s = plan.Stats();
  EXPECT_EQ(s.num_selects, 2);
  EXPECT_EQ(s.num_unions, 1);
  EXPECT_TRUE(IntermediatesEqual(serial, Eval(plan), 1e-6));
}

TEST_F(MutatorTest, BasicSplitSlicesAreAlignedAndCoverTheColumn) {
  QueryPlan plan = SelectPlan();
  Mutator m(cfg_);
  ASSERT_TRUE(m.SplitNode(&plan, 0, 4).ok());
  // Collect the slices of the select clones.
  std::vector<RowRange> slices;
  for (const auto& n : plan.nodes()) {
    if (n.kind == OpKind::kSelect && n.has_slice) slices.push_back(n.slice);
  }
  ASSERT_EQ(slices.size(), 4u);
  uint64_t covered = 0;
  for (size_t i = 0; i < slices.size(); ++i) {
    covered += slices[i].size();
    if (i > 0) {
      EXPECT_EQ(slices[i].begin, slices[i - 1].end);  // aligned
    }
  }
  EXPECT_EQ(covered, vals_->size());
}

TEST_F(MutatorTest, ResplitSplicesIntoExistingUnion) {
  QueryPlan plan = SelectPlan();
  Mutator m(cfg_);
  ASSERT_TRUE(m.SplitNode(&plan, 0, 2).ok());
  // Find one select clone and split it again.
  int clone = -1;
  for (const auto& n : plan.nodes()) {
    if (n.kind == OpKind::kSelect && n.has_slice) clone = n.id;
  }
  ASSERT_GE(clone, 0);
  ASSERT_TRUE(m.SplitNode(&plan, clone, 2).ok());
  PlanStats s = plan.Stats();
  EXPECT_EQ(s.num_selects, 3);      // 2 live + 1 new pair replacing one
  EXPECT_EQ(s.num_unions, 1);       // spliced, not nested
  EXPECT_EQ(s.max_union_fanin, 3);
  Intermediate serial = Eval(SelectPlan());
  EXPECT_TRUE(IntermediatesEqual(serial, Eval(plan), 1e-6));
}

TEST_F(MutatorTest, SplitRefusesTinyPartitions) {
  QueryPlan plan = SelectPlan();
  MutatorConfig cfg;
  cfg.min_partition_rows = 50'000;  // bigger than the table
  Mutator m(cfg);
  Status st = m.SplitNode(&plan, 0, 2);
  EXPECT_EQ(st.code(), StatusCode::kUnsupported);
}

TEST_F(MutatorTest, SplitRefusesNonParallelizableOps) {
  QueryPlan plan = SelectPlan();
  Mutator m(cfg_);
  // Node 2 is the aggregate.
  ASSERT_EQ(plan.node(2).kind, OpKind::kAggregate);
  EXPECT_EQ(m.SplitNode(&plan, 2, 2).code(), StatusCode::kUnsupported);
}

TEST_F(MutatorTest, BasicSplitJoinPreservesResult) {
  QueryPlan plan = JoinPlan();
  Intermediate serial = Eval(plan);
  Mutator m(cfg_);
  int join_id = -1;
  for (const auto& n : plan.nodes()) {
    if (n.kind == OpKind::kJoin) join_id = n.id;
  }
  ASSERT_TRUE(m.SplitNode(&plan, join_id, 2).ok());
  ASSERT_TRUE(plan.Validate().ok());
  EXPECT_EQ(plan.Stats().num_joins, 2);
  EXPECT_TRUE(IntermediatesEqual(serial, Eval(plan), 1e-6));
}

TEST_F(MutatorTest, BasicSplitFetchJoinPreservesResultAndOrder) {
  QueryPlan plan = SelectPlan();
  Intermediate serial = Eval(plan);
  Mutator m(cfg_);
  int f_id = 1;
  ASSERT_EQ(plan.node(f_id).kind, OpKind::kFetchJoin);
  ASSERT_TRUE(m.SplitNode(&plan, f_id, 3).ok());
  EXPECT_TRUE(IntermediatesEqual(serial, Eval(plan), 1e-6));
}

TEST_F(MutatorTest, MediumMutationRemovesUnionAndPreservesResult) {
  QueryPlan plan = SelectPlan();
  Intermediate serial = Eval(plan);
  Mutator m(cfg_);
  ASSERT_TRUE(m.SplitNode(&plan, 0, 3).ok());
  // Find the union and propagate it through the fetchjoin consumer.
  int union_id = -1;
  for (const auto& n : plan.nodes()) {
    if (n.kind == OpKind::kExchangeUnion) union_id = n.id;
  }
  ASSERT_GE(union_id, 0);
  ASSERT_TRUE(m.PropagateUnion(&plan, union_id).ok());
  ASSERT_TRUE(plan.Validate().ok());
  PlanStats s = plan.Stats();
  EXPECT_EQ(s.num_fetchjoins, 3);  // cloned per union input
  EXPECT_TRUE(IntermediatesEqual(serial, Eval(plan), 1e-6));
}

TEST_F(MutatorTest, MediumMutationSuppressedAboveFaninThreshold) {
  QueryPlan plan = SelectPlan();
  MutatorConfig cfg = cfg_;
  cfg.union_fanin_threshold = 3;
  Mutator m(cfg);
  ASSERT_TRUE(m.SplitNode(&plan, 0, 5).ok());
  int union_id = -1;
  for (const auto& n : plan.nodes()) {
    if (n.kind == OpKind::kExchangeUnion) union_id = n.id;
  }
  Status st = m.PropagateUnion(&plan, union_id);
  EXPECT_EQ(st.code(), StatusCode::kUnsupported);
  EXPECT_NE(st.message().find("suppressed"), std::string::npos);
}

TEST_F(MutatorTest, MediumMutationThroughScalarAggregateAddsMerge) {
  QueryPlan plan = SelectPlan();
  Intermediate serial = Eval(plan);
  Mutator m(cfg_);
  ASSERT_TRUE(m.SplitNode(&plan, 1, 2).ok());  // split the fetchjoin
  int union_id = -1;
  for (const auto& n : plan.nodes()) {
    if (n.kind == OpKind::kExchangeUnion) union_id = n.id;
  }
  // The union feeds the scalar aggregate; propagation must clone the
  // aggregate and add a merge.
  ASSERT_TRUE(m.PropagateUnion(&plan, union_id).ok());
  ASSERT_TRUE(plan.Validate().ok());
  bool has_merge = false;
  auto topo = plan.TopologicalOrder();
  ASSERT_TRUE(topo.ok());
  for (int id : topo.ValueOrDie()) {
    if (plan.node(id).kind == OpKind::kAggrMerge) has_merge = true;
  }
  EXPECT_TRUE(has_merge);
  EXPECT_TRUE(IntermediatesEqual(serial, Eval(plan), 1e-6));
}

TEST_F(MutatorTest, AdvancedGroupByPreservesResult) {
  QueryPlan plan = GroupByPlan();
  Intermediate serial = Eval(plan);
  Mutator m(cfg_);
  // Partition both fetchjoins (keys and values) 2 ways, keeping matching
  // partition structure, then parallelize the group-by.
  ASSERT_TRUE(m.SplitNode(&plan, 1, 2).ok());  // keys fetchjoin
  ASSERT_TRUE(m.SplitNode(&plan, 2, 2).ok());  // values fetchjoin
  int gb_id = 3;
  ASSERT_EQ(plan.node(gb_id).kind, OpKind::kGroupBy);
  ASSERT_TRUE(m.AdvancedGroupBy(&plan, gb_id).ok());
  ASSERT_TRUE(plan.Validate().ok());
  PlanStats s = plan.Stats();
  EXPECT_EQ(s.num_groupbys, 2);
  EXPECT_TRUE(IntermediatesEqual(serial, Eval(plan), 1e-6));
}

TEST_F(MutatorTest, AdvancedGroupByRequiresPartitionedInput) {
  QueryPlan plan = GroupByPlan();
  Mutator m(cfg_);
  Status st = m.AdvancedGroupBy(&plan, 3);
  EXPECT_EQ(st.code(), StatusCode::kUnsupported);
}

TEST_F(MutatorTest, AdvancedGroupByRejectsMismatchedValuePartitions) {
  QueryPlan plan = GroupByPlan();
  Mutator m(cfg_);
  ASSERT_TRUE(m.SplitNode(&plan, 1, 2).ok());  // keys 2 ways
  ASSERT_TRUE(m.SplitNode(&plan, 2, 3).ok());  // values 3 ways (mismatch)
  Status st = m.AdvancedGroupBy(&plan, 3);
  EXPECT_EQ(st.code(), StatusCode::kUnsupported);
}

TEST_F(MutatorTest, AdvancedSortPreservesResult) {
  PlanBuilder b("sort");
  int sel = b.Select(vals_.get(), Predicate::RangeI64(0, 99));
  int f = b.FetchJoin(w_.get(), sel);
  int srt = b.Sort(f);
  QueryPlan plan = b.Result(srt);
  Intermediate serial = Eval(plan);
  Mutator m(cfg_);
  ASSERT_TRUE(m.SplitNode(&plan, f, 2).ok());
  ASSERT_TRUE(m.AdvancedSort(&plan, srt).ok());
  ASSERT_TRUE(plan.Validate().ok());
  Intermediate par = Eval(plan);
  // Values must be identically sorted (head order may differ for ties).
  ASSERT_EQ(par.values.size(), serial.values.size());
  for (uint64_t i = 0; i < par.values.size(); ++i) {
    EXPECT_DOUBLE_EQ(par.values.AsDouble(i), serial.values.AsDouble(i));
  }
}

TEST_F(MutatorTest, MutateMostExpensiveTargetsHotOperator) {
  QueryPlan plan = SelectPlan();
  Mutator m(cfg_);
  MutationReport report;
  auto mutated = m.MutateMostExpensive(plan, FakeProfile(plan, 0), &report);
  ASSERT_TRUE(mutated.ok());
  EXPECT_TRUE(report.mutated);
  EXPECT_EQ(report.target_node, 0);
  EXPECT_EQ(report.action, "basic");
  EXPECT_EQ(mutated.ValueOrDie().Stats().num_selects, 2);
}

TEST_F(MutatorTest, MutateMostExpensiveFallsBackToAncestorForAggregate) {
  QueryPlan plan = SelectPlan();
  Mutator m(cfg_);
  // The aggregate (node 2) is hottest but unmutable; its splittable ancestor
  // (select or fetchjoin) should be split instead.
  MutationReport report;
  auto mutated = m.MutateMostExpensive(plan, FakeProfile(plan, 2), &report);
  ASSERT_TRUE(mutated.ok());
  EXPECT_TRUE(report.mutated);
  EXPECT_NE(report.target_node, 2);
  EXPECT_EQ(report.action, "basic");
}

/// Attaches a synthetic morsel histogram to `node` of `rp`: `outs[i]` tuples
/// produced by morsel i, each morsel covering `rows_per_morsel` consecutive
/// base rows starting at `base` (domain unknown when rows_per_morsel == 0).
void AttachMorsels(RunProfile* rp, int node,
                   const std::vector<uint64_t>& outs,
                   uint64_t rows_per_morsel, uint64_t base = 0) {
  for (auto& op : rp->ops) {
    if (op.node_id != node) continue;
    op.morsels.clear();
    for (size_t i = 0; i < outs.size(); ++i) {
      MorselMetrics ms;
      ms.tuples_in = rows_per_morsel > 0 ? rows_per_morsel : 1000;
      ms.tuples_out = outs[i];
      ms.wall_ns = 1000;  // balanced wall times: only the tuple signal skews
      if (rows_per_morsel > 0) {
        ms.domain_begin = base + i * rows_per_morsel;
        ms.domain_end = ms.domain_begin + rows_per_morsel;
      }
      op.morsels.push_back(ms);
    }
    op.ComputeSkewFromMorsels();
  }
}

std::vector<RowRange> SelectSlices(const QueryPlan& plan) {
  return PartitionSlices(plan, OpKind::kSelect);
}

TEST_F(MutatorTest, HighSkewProfileFlipsBasicSplitToRangeRepartition) {
  // The select's profiled histogram concentrates output in morsels 5-6
  // (density 3x the rest): the basic mutation must re-partition on the
  // density edges at rows 10000 and 14000 instead of halving at 10000.
  QueryPlan plan = SelectPlan();
  Intermediate serial = Eval(plan);
  Mutator m(cfg_);
  RunProfile rp = FakeProfile(plan, 0);
  AttachMorsels(&rp, 0, {0, 0, 0, 0, 0, 2000, 2000, 0, 0, 0}, 2000);
  ASSERT_GE(rp.ops[0].morsel_tuple_skew, m.config().skew_threshold);
  MutationReport report;
  auto mutated = m.MutateMostExpensive(plan, rp, &report);
  ASSERT_TRUE(mutated.ok());
  EXPECT_TRUE(report.mutated);
  EXPECT_TRUE(report.skew_aware);
  EXPECT_EQ(report.action, "basic-skew");
  EXPECT_EQ(report.target_node, 0);
  std::vector<RowRange> slices = SelectSlices(mutated.ValueOrDie());
  ASSERT_EQ(slices.size(), 3u);
  EXPECT_EQ(slices[0], (RowRange{0, 10000}));
  EXPECT_EQ(slices[1], (RowRange{10000, 14000}));
  EXPECT_EQ(slices[2], (RowRange{14000, 20000}));
  EXPECT_TRUE(IntermediatesEqual(serial, Eval(mutated.ValueOrDie()), 1e-6));
}

TEST_F(MutatorTest, BalancedProfileKeepsUniformHalving) {
  // Same histogram shape but evenly spread output: no skew, uniform split.
  QueryPlan plan = SelectPlan();
  Mutator m(cfg_);
  RunProfile rp = FakeProfile(plan, 0);
  AttachMorsels(&rp, 0, std::vector<uint64_t>(10, 400), 2000);
  EXPECT_LT(rp.ops[0].morsel_tuple_skew, m.config().skew_threshold);
  MutationReport report;
  auto mutated = m.MutateMostExpensive(plan, rp, &report);
  ASSERT_TRUE(mutated.ok());
  EXPECT_TRUE(report.mutated);
  EXPECT_FALSE(report.skew_aware);
  EXPECT_EQ(report.action, "basic");
  std::vector<RowRange> slices = SelectSlices(mutated.ValueOrDie());
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0], (RowRange{0, 10000}));
  EXPECT_EQ(slices[1], (RowRange{10000, 20000}));
}

TEST_F(MutatorTest, SkewThresholdKnobDisablesRepartitioning) {
  // A prohibitive threshold (the uniform-baseline configuration used by the
  // Fig 12 bench) keeps halving even on a maximally skewed histogram.
  QueryPlan plan = SelectPlan();
  MutatorConfig cfg = cfg_;
  cfg.skew_threshold = 1e30;
  Mutator m(cfg);
  RunProfile rp = FakeProfile(plan, 0);
  AttachMorsels(&rp, 0, {0, 0, 0, 0, 0, 2000, 2000, 0, 0, 0}, 2000);
  MutationReport report;
  auto mutated = m.MutateMostExpensive(plan, rp, &report);
  ASSERT_TRUE(mutated.ok());
  EXPECT_FALSE(report.skew_aware);
  EXPECT_EQ(report.action, "basic");
  EXPECT_EQ(SelectSlices(mutated.ValueOrDie()).size(), 2u);
}

TEST_F(MutatorTest, UnknownMorselDomainsFallBackToUniform) {
  // Histograms without base-row domains (group-by ingest, sort runs) cannot
  // be mapped to split points; the mutation quietly stays uniform.
  QueryPlan plan = SelectPlan();
  Mutator m(cfg_);
  RunProfile rp = FakeProfile(plan, 0);
  AttachMorsels(&rp, 0, {0, 0, 0, 0, 0, 2000, 2000, 0, 0, 0},
                /*rows_per_morsel=*/0);
  ASSERT_EQ(rp.ops[0].morsel_tuple_skew, 0.0);
  rp.ops[0].morsel_skew = 10.0;  // wall-skew trigger without domain info
  MutationReport report;
  auto mutated = m.MutateMostExpensive(plan, rp, &report);
  ASSERT_TRUE(mutated.ok());
  EXPECT_FALSE(report.skew_aware);
  EXPECT_EQ(report.action, "basic");
  EXPECT_EQ(SelectSlices(mutated.ValueOrDie()).size(), 2u);
}

TEST_F(MutatorTest, SkewSplitPointsLandOnDensityEdges) {
  std::vector<MorselMetrics> hist;
  for (int i = 0; i < 10; ++i) {
    MorselMetrics ms;
    ms.tuples_in = 2000;
    ms.tuples_out = (i == 5 || i == 6) ? 2000 : 0;
    ms.domain_begin = static_cast<uint64_t>(i) * 2000;
    ms.domain_end = ms.domain_begin + 2000;
    hist.push_back(ms);
  }
  auto points = Mutator::SkewSplitPoints(RowRange{0, 20000}, hist,
                                         /*min_partition_rows=*/256,
                                         /*max_pieces=*/8,
                                         /*fallback_ways=*/2);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0], 10000u);
  EXPECT_EQ(points[1], 14000u);

  // min_partition_rows prunes the edge that would create a 4000-row piece.
  points = Mutator::SkewSplitPoints(RowRange{0, 20000}, hist, 5000, 8, 2);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0], 10000u);
}

TEST_F(MutatorTest, SkewSplitPointsQuarantineStraddlingMorsel) {
  // A value boundary inside morsel 5 dilutes both adjacent density steps
  // below the 2x edge ratio (1.0 | 1.8 | 3.0): the two-step pattern must
  // isolate the straddling morsel into its own piece so both neighbours
  // stay homogeneous.
  std::vector<MorselMetrics> hist;
  for (int i = 0; i < 10; ++i) {
    MorselMetrics ms;
    ms.tuples_in = 2000;
    ms.tuples_out = i < 5 ? 0 : (i == 5 ? 800 : 2000);
    ms.domain_begin = static_cast<uint64_t>(i) * 2000;
    ms.domain_end = ms.domain_begin + 2000;
    hist.push_back(ms);
  }
  auto points = Mutator::SkewSplitPoints(RowRange{0, 20000}, hist, 256, 8, 2);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0], 10000u);  // cold | straddler
  EXPECT_EQ(points[1], 12000u);  // straddler | hot
}

TEST_F(MutatorTest, SkewSplitPointsQuantileFallbackOnSmoothGradient) {
  // Density rises gently (no adjacent >= 2x edge) but spreads > 2x overall:
  // the split point falls on the equal-cumulative-weight boundary, not the
  // row midpoint.
  std::vector<MorselMetrics> hist;
  for (int i = 0; i < 10; ++i) {
    MorselMetrics ms;
    ms.tuples_in = 2000;
    ms.tuples_out = static_cast<uint64_t>(i) * 250;
    ms.domain_begin = static_cast<uint64_t>(i) * 2000;
    ms.domain_end = ms.domain_begin + 2000;
    hist.push_back(ms);
  }
  auto points = Mutator::SkewSplitPoints(RowRange{0, 20000}, hist, 256, 8, 2);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0], 14000u);  // weighted median boundary (> 10000)

  // A flat histogram must produce no points at all (wall-noise triggers
  // degrade to uniform halving).
  for (auto& ms : hist) ms.tuples_out = 400;
  EXPECT_TRUE(
      Mutator::SkewSplitPoints(RowRange{0, 20000}, hist, 256, 8, 2).empty());
}

TEST_F(MutatorTest, StaticOriginFollowsDataflow) {
  QueryPlan plan = JoinPlan();
  // Select leaf: full column.
  EXPECT_EQ(Mutator::StaticOrigin(plan, 0), vals_->full_range());
  // FetchJoin on fk: fk's full range.
  EXPECT_EQ(Mutator::StaticOrigin(plan, 1), fk_->full_range());
}

TEST_F(MutatorTest, RepeatedMutationsKeepResultStable) {
  // Drive many mutation steps with synthetic profiles picking random nodes;
  // the result must never change (the key safety property of adaptation).
  QueryPlan serial = JoinPlan();
  Intermediate expect = Eval(serial);
  Mutator m(cfg_);
  Rng rng(11);
  QueryPlan plan = serial.Clone();
  for (int step = 0; step < 12; ++step) {
    auto topo = plan.TopologicalOrder();
    ASSERT_TRUE(topo.ok());
    const auto& order = topo.ValueOrDie();
    int victim = order[rng.Uniform(order.size())];
    MutationReport report;
    auto mutated = m.MutateMostExpensive(plan, FakeProfile(plan, victim),
                                         &report);
    ASSERT_TRUE(mutated.ok());
    plan = mutated.MoveValueOrDie();
    ASSERT_TRUE(plan.Validate().ok()) << plan.ToString();
    ASSERT_TRUE(IntermediatesEqual(expect, Eval(plan), 1e-6))
        << "diverged at step " << step;
  }
}

// A failed attempt can edit the plan before it fails: propagating a union
// clones its first consumer, then the group-by consumer refuses the advanced
// mutation. The step must still start its next attempt from the unmutated
// plan, exactly as if that attempt had a fresh copy.
TEST_F(MutatorTest, FailedAttemptEditsAreUndoneBeforeTheNextAttempt) {
  PlanBuilder b("partial");
  int sel = b.Select(vals_.get(), Predicate::RangeI64(0, 499));
  int keys = b.FetchJoin(fk_.get(), sel);
  int vals = b.FetchJoin(w_.get(), sel);
  int scaled = b.MapConst(MapFn::kMul, keys, 2.0);
  int total = b.AggScalar(AggFn::kSum, scaled);
  int gb = b.GroupBy(keys);
  int sums = b.AggGrouped(AggFn::kSum, gb, vals);  // values not partitioned
  QueryPlan plan = b.Result(b.Map2(MapFn::kAdd, total, sums));
  Mutator m(cfg_);
  ASSERT_TRUE(m.SplitNode(&plan, keys, 2).ok());
  const int u = plan.node(gb).inputs[0];
  ASSERT_EQ(plan.node(u).kind, OpKind::kExchangeUnion);
  ASSERT_EQ(plan.Consumers(u), (std::vector<int>{scaled, gb}));
  // Propagating `u` clones `scaled` first, then fails at the group-by.
  {
    QueryPlan probe = plan.Clone();
    Status st = m.PropagateUnion(&probe, u);
    ASSERT_FALSE(st.ok());
    ASSERT_GT(probe.num_nodes(), plan.num_nodes()) << st.ToString();
  }

  RunProfile profile = FakeProfile(plan, u);
  for (OpProfile& op : profile.ops) {
    if (op.node_id == sel) op.end_ns = op.start_ns + 5e5;
  }
  MutationReport report;
  auto mutated = m.MutateMostExpensive(plan, profile, &report);
  ASSERT_TRUE(mutated.ok());
  ASSERT_TRUE(report.mutated);
  EXPECT_EQ(report.target_node, sel);  // the union's splittable ancestor

  QueryPlan expected = plan.Clone();
  ASSERT_TRUE(m.SplitAligned(&expected, sel, cfg_.split_ways).ok());
  Mutator::FlattenUnions(&expected);
  const QueryPlan& got = mutated.ValueOrDie();
  ASSERT_EQ(got.num_nodes(), expected.num_nodes());
  for (int id = 0; id < got.num_nodes(); ++id) {
    EXPECT_EQ(got.node(id).ToString(), expected.node(id).ToString());
  }
}

// ---- golden mutation sequences ----------------------------------------------
//
// MutateMostExpensive driven for 40 steps over two TPC-H plans and a TPC-DS
// plan by deterministic synthetic profiles (costs from the rows each operator
// covers, jittered per node and step; some selects and fetch-joins carry a
// clustered morsel histogram, so the skew-aware split runs too). Each step's
// plan and report are pinned: work on the mutator's internals must not
// change node ids, plans or reports. On a mismatch the failure prints the
// whole actual table.

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t Fnv1a(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

RunProfile SyntheticProfile(const QueryPlan& plan, int step) {
  RunProfile rp;
  auto topo = plan.TopologicalOrder();
  APQ_CHECK(topo.ok());
  double clock = 0;
  for (int id : topo.ValueOrDie()) {
    const PlanNode& n = plan.node(id);
    const uint64_t h = SplitMix(static_cast<uint64_t>(id) * 7919u +
                                static_cast<uint64_t>(step));
    const RowRange r = Mutator::StaticOrigin(plan, id);
    OpProfile op;
    op.node_id = id;
    op.kind = n.kind;
    op.label = n.label;
    op.tuples_in = r.size();
    op.tuples_out = r.size() / 2;
    // Group-bys and sorts cost more per row, so advanced mutations compete.
    const bool heavy = n.kind == OpKind::kGroupBy || n.kind == OpKind::kSort ||
                       n.kind == OpKind::kTopN;
    const double rows = static_cast<double>(std::max<uint64_t>(r.size(), 1)) *
                        (heavy ? 3.0 : 1.0);
    op.start_ns = clock;
    op.end_ns = clock + rows * (0.25 + static_cast<double>(h % 1000) / 400.0);
    clock = op.end_ns;
    // One op in five of the range-splittable kinds carries a histogram whose
    // middle morsels are four times denser: a clustered-value layout.
    if ((n.kind == OpKind::kSelect || n.kind == OpKind::kFetchJoin) &&
        (h >> 20) % 5 == 0 && r.size() >= 64) {
      const uint64_t w = r.size() / 8;
      for (uint64_t k = 0; k < 8; ++k) {
        MorselMetrics m;
        m.domain_begin = r.begin + k * w;
        m.domain_end = k == 7 ? r.end : r.begin + (k + 1) * w;
        m.tuples_in = m.domain_end - m.domain_begin;
        m.tuples_out = (k == 3 || k == 4) ? m.tuples_in : m.tuples_in / 8;
        m.wall_ns = static_cast<double>(m.tuples_in + 2 * m.tuples_out);
        op.morsels.push_back(m);
      }
      op.ComputeSkewFromMorsels();
    }
    rp.ops.push_back(op);
  }
  rp.makespan_ns = clock;
  return rp;
}

// One step as a line: node count, a hash over every node (reachable or
// not) and the rendered plan, and every report field.
std::string DescribeStep(const QueryPlan& plan, const MutationReport& rep) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const PlanNode& n : plan.nodes()) h = Fnv1a(h, n.ToString() + "\n");
  h = Fnv1a(h, plan.ToString());
  std::string rows;
  for (uint64_t r : rep.split_rows) {
    rows += (rows.empty() ? "" : ",") + std::to_string(r);
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  return "n=" + std::to_string(plan.num_nodes()) + " h=" + hex +
         " m=" + std::to_string(rep.mutated) +
         " t=" + std::to_string(rep.target_node) + " a=" + rep.action +
         " s=" + std::to_string(rep.skew_aware) + " r=[" + rows +
         "] d=" + rep.detail;
}

std::vector<std::string> MutationSteps(QueryPlan plan, int steps) {
  MutatorConfig cfg;
  cfg.min_partition_rows = 64;
  Mutator m(cfg);
  std::vector<std::string> out;
  for (int step = 0; step < steps; ++step) {
    MutationReport rep;
    auto next = m.MutateMostExpensive(plan, SyntheticProfile(plan, step), &rep);
    APQ_CHECK(next.ok());
    plan = next.MoveValueOrDie();
    APQ_CHECK(plan.Validate().ok());
    out.push_back(DescribeStep(plan, rep));
  }
  return out;
}

void ExpectSteps(const std::vector<std::string>& got,
                 const std::vector<std::string>& want) {
  std::string table;
  for (const std::string& line : got) table += "      \"" + line + "\",\n";
  ASSERT_EQ(got.size(), want.size()) << "actual steps:\n" << table;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "step " << i << "; actual steps:\n" << table;
    if (got[i] != want[i]) break;
  }
}

class MutatorGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TpchConfig cfg;
    cfg.lineitem_rows = 20'000;
    tpch_ = Tpch::Generate(cfg);
  }
  static void TearDownTestSuite() { tpch_.reset(); }
  static std::shared_ptr<Catalog> tpch_;
};
std::shared_ptr<Catalog> MutatorGoldenTest::tpch_;

// Q4 reaches the advanced group-by mutation.
TEST_F(MutatorGoldenTest, TpchQ4StepsMatchReference) {
  auto q4 = Tpch::Q4(*tpch_);
  ASSERT_TRUE(q4.ok());
  ExpectSteps(MutationSteps(q4.ValueOrDie(), 40), {
      "n=9 h=d2efe99927236e32 m=1 t=0 a=basic s=0 r=[2500] d=split select (ancestor of X_2)",
      "n=13 h=f62f0ec0c4af0bdf m=1 t=1 a=basic-skew s=1 r=[1875,3125] d=skew 2.40: value-balanced re-partition of fetchjoin into 3 pieces (ancestor of X_2)",
      "n=15 h=249bfa13ced064e1 m=1 t=9 a=basic s=0 r=[937] d=split fetchjoin (ancestor of X_4)",
      "n=25 h=2c1541f7625b6b90 m=1 t=2 a=advanced s=0 r=[] d=cloned group-by + aggregates per partition",
      "n=28 h=8fef66fd97779c1e m=1 t=10 a=basic s=0 r=[2500] d=split fetchjoin (ancestor of X_4)",
      "n=43 h=faa18e0779ebfb71 m=1 t=8 a=medium s=0 r=[] d=propagated union inputs to consumers",
      "n=45 h=8b24b04448d5b469 m=1 t=41 a=basic s=0 r=[4062] d=split fetchjoin (ancestor of X_4)",
      "n=48 h=2b92347861a34ce0 m=1 t=7 a=basic s=0 r=[3750] d=split select (ancestor of X_4)",
      "n=51 h=dac5f25e2991356e m=1 t=6 a=basic s=0 r=[1250] d=split select (ancestor of X_4)",
      "n=54 h=8dac7d6da5df765f m=1 t=49 a=basic-skew s=1 r=[1718,2030] d=skew 2.42: value-balanced re-partition of select into 3 pieces (ancestor of X_4)",
      "n=56 h=cb3c4cec9fbddc0a m=1 t=40 a=basic s=0 r=[4062] d=split fetchjoin (ancestor of X_4)",
      "n=59 h=19f9224fb1aa426c m=1 t=45 a=basic-skew s=1 r=[2968,3280] d=skew 2.42: value-balanced re-partition of select into 3 pieces (ancestor of X_4)",
      "n=61 h=a94e1517c68a05c4 m=1 t=32 a=basic s=0 r=[1406] d=split fetchjoin (ancestor of X_4)",
      "n=64 h=9d070d2fe8e0edc5 m=1 t=54 a=basic-skew s=1 r=[3476,3710] d=skew 2.42: value-balanced re-partition of fetchjoin into 3 pieces (ancestor of X_4)",
      "n=78 h=d8e211ea636b2283 m=1 t=18 a=advanced s=0 r=[] d=cloned group-by + aggregates per partition",
      "n=80 h=726ff4c109646478 m=1 t=29 a=basic s=0 r=[468] d=split fetchjoin (ancestor of X_4)",
      "n=82 h=6da730baa7dee337 m=1 t=46 a=basic s=0 r=[4375] d=split select (ancestor of X_4)",
      "n=84 h=bcb9bf63d16d2074 m=1 t=48 a=basic s=0 r=[625] d=split select (ancestor of X_4)",
      "n=87 h=3eb9b75324c3d490 m=1 t=55 a=basic s=0 r=[4531] d=split fetchjoin (ancestor of X_4)",
      "n=91 h=44e898d1ce530e18 m=1 t=43 a=basic-skew s=1 r=[3476,3710] d=skew 2.42: value-balanced re-partition of fetchjoin into 3 pieces (ancestor of X_4)",
      "n=93 h=b836495cfbf96b69 m=1 t=83 a=basic s=0 r=[937] d=split select (ancestor of X_4)",
      "n=95 h=d2772130810a01f2 m=1 t=35 a=basic s=0 r=[2187] d=split fetchjoin (ancestor of X_4)",
      "n=98 h=6bcfebd06441bd9a m=1 t=44 a=basic s=0 r=[4531] d=split fetchjoin (ancestor of X_23)",
      "n=110 h=7ac2c63cb4e4a379 m=1 t=17 a=advanced s=0 r=[] d=cloned group-by + aggregates per partition",
      "n=112 h=b921236551b9bd39 m=1 t=28 a=basic s=0 r=[468] d=split fetchjoin (ancestor of X_4)",
      "n=114 h=e5366c36c2dfa0c2 m=1 t=80 a=basic s=0 r=[4062] d=split select (ancestor of X_4)",
      "n=116 h=083ef224aafcc11f m=1 t=31 a=basic s=0 r=[1406] d=split fetchjoin (ancestor of X_4)",
      "n=118 h=a476cb496ce8164f m=1 t=82 a=basic s=0 r=[312] d=split select (ancestor of X_23)",
      "n=121 h=02d8f005c8368dc4 m=1 t=37 a=basic s=0 r=[2812] d=split fetchjoin (ancestor of X_4)",
      "n=123 h=28b4395689f2783c m=1 t=81 a=basic s=0 r=[4687] d=split select (ancestor of X_4)",
      "n=126 h=f7204252c5274b23 m=1 t=34 a=basic s=0 r=[2187] d=split fetchjoin (ancestor of X_4)",
      "n=130 h=2117da86dac653b2 m=1 t=38 a=basic-skew s=1 r=[2734,2890] d=skew 2.44: value-balanced re-partition of fetchjoin into 3 pieces (ancestor of X_4)",
      "n=133 h=bc2aaa696eb484a6 m=1 t=56 a=basic-skew s=1 r=[2674,2790] d=skew 2.45: value-balanced re-partition of select into 3 pieces (ancestor of X_4)",
      "n=136 h=b36ce80c386b309d m=1 t=111 a=basic-skew s=1 r=[642,758] d=skew 2.45: value-balanced re-partition of fetchjoin into 3 pieces (ancestor of X_4)",
      "n=139 h=173d2cdbddb4a857 m=1 t=58 a=basic-skew s=1 r=[3454,3570] d=skew 2.42: value-balanced re-partition of select into 3 pieces (ancestor of X_4)",
      "n=141 h=57b33be4d5cea614 m=1 t=110 a=basic s=0 r=[234] d=split fetchjoin (ancestor of X_4)",
      "n=143 h=a7098dc791952d19 m=1 t=60 a=basic s=0 r=[1640] d=split fetchjoin (ancestor of X_4)",
      "n=145 h=da2602f1dd58ec1f m=1 t=79 a=basic s=0 r=[702] d=split fetchjoin (ancestor of X_4)",
      "n=147 h=37064b697af8f04d m=1 t=115 a=basic s=0 r=[1640] d=split fetchjoin (ancestor of X_24)",
      "n=149 h=173a1e2e4cf437e5 m=1 t=51 a=basic s=0 r=[1484] d=split select (ancestor of X_4)",
  });
}

// Q9 grows past 300 nodes through alternating join splits and propagations.
TEST_F(MutatorGoldenTest, TpchQ9StepsMatchReference) {
  auto q9 = Tpch::Q9(*tpch_);
  ASSERT_TRUE(q9.ok());
  ExpectSteps(MutationSteps(q9.ValueOrDie(), 40), {
      "n=21 h=28bbac6394c21d6f m=1 t=0 a=basic s=0 r=[10000] d=split join (ancestor of X_7)",
      "n=36 h=8fd6b4749b7c8519 m=1 t=3 a=medium s=0 r=[] d=propagated input union (unsplittable operator)",
      "n=39 h=2402faa5d56da5a3 m=1 t=19 a=basic s=0 r=[15000] d=split join (ancestor of X_28)",
      "n=42 h=cc4ce6c3224ad15c m=1 t=18 a=basic s=0 r=[5000] d=split join (ancestor of X_24)",
      "n=57 h=a4e783f911769156 m=1 t=21 a=medium s=0 r=[] d=propagated input union (unsplittable operator)",
      "n=61 h=77a895ecc7c79e9a m=1 t=8 a=medium s=0 r=[] d=propagated input union through map",
      "n=64 h=2285741cd23b4336 m=1 t=39 a=basic s=0 r=[2500] d=split join (ancestor of X_45)",
      "n=79 h=2119263b7aa4993c m=1 t=28 a=medium s=0 r=[] d=propagated input union (unsplittable operator)",
      "n=82 h=8f5d108a62de8c33 m=1 t=36 a=basic s=0 r=[12500] d=split join (ancestor of X_73)",
      "n=85 h=d4cbf0b1cc0f6a72 m=1 t=40 a=basic s=0 r=[7500] d=split join (ancestor of X_49)",
      "n=100 h=ac699717bf75c57f m=1 t=73 a=medium s=0 r=[] d=propagated input union (unsplittable operator)",
      "n=115 h=05ec85695a5beae8 m=1 t=45 a=medium s=0 r=[] d=propagated input union (unsplittable operator)",
      "n=118 h=d63d6f4474377a24 m=1 t=61 a=basic s=0 r=[1250] d=split join (ancestor of X_103)",
      "n=133 h=39b496aa5adff057 m=1 t=106 a=medium s=0 r=[] d=propagated input union (unsplittable operator)",
      "n=136 h=7fb39e5ae55e9edb m=1 t=79 a=basic s=0 r=[11250] d=split join (ancestor of X_88)",
      "n=151 h=11997dedd544efca m=1 t=43 a=medium s=0 r=[] d=propagated input union (unsplittable operator)",
      "n=154 h=606a198724f780bf m=1 t=62 a=basic s=0 r=[3750] d=split join (ancestor of X_110)",
      "n=157 h=457bef520aea8972 m=1 t=37 a=basic s=0 r=[17500] d=split join (ancestor of X_65)",
      "n=160 h=0729c7dd7da43842 m=1 t=116 a=basic s=0 r=[1875] d=split join (ancestor of X_128)",
      "n=175 h=1befe8172879d670 m=1 t=74 a=medium s=0 r=[] d=propagated input union (unsplittable operator)",
      "n=178 h=72ffe293229b3da2 m=1 t=155 a=basic s=0 r=[18750] d=split join (ancestor of X_161)",
      "n=181 h=3bb9f0975c30a5fa m=1 t=154 a=basic s=0 r=[16250] d=split join (ancestor of X_169)",
      "n=196 h=b125591ad9a70635 m=1 t=94 a=medium s=0 r=[] d=propagated input union (unsplittable operator)",
      "n=211 h=52f04583c80645cf m=1 t=161 a=medium s=0 r=[] d=propagated input union (unsplittable operator)",
      "n=214 h=0a7b64a855ed30d7 m=1 t=83 a=basic s=0 r=[8750] d=split join (ancestor of X_137)",
      "n=217 h=11d5e91d3421a3b6 m=1 t=80 a=basic s=0 r=[13750] d=split join (ancestor of X_86)",
      "n=220 h=8a274844b9e47214 m=1 t=134 a=basic s=0 r=[11875] d=split join (ancestor of X_188)",
      "n=235 h=d6c1df5c56fecb7e m=1 t=107 a=medium s=0 r=[] d=propagated input union (unsplittable operator)",
      "n=238 h=8f16b172b301bda6 m=1 t=82 a=basic s=0 r=[6250] d=split join (ancestor of X_139)",
      "n=241 h=53520c90ccd11a7c m=1 t=133 a=basic s=0 r=[10625] d=split join (ancestor of X_187)",
      "n=244 h=70d987a1ecc02b7e m=1 t=151 a=basic s=0 r=[3125] d=split join (ancestor of X_220)",
      "n=247 h=a2a6ad8e5d4adead m=1 t=152 a=basic s=0 r=[4375] d=split join (ancestor of X_221)",
      "n=262 h=23ea0a7ba352e8ee m=1 t=146 a=medium s=0 r=[] d=propagated input union (unsplittable operator)",
      "n=277 h=0c2383258ddeed5a m=1 t=223 a=medium s=0 r=[] d=propagated input union (unsplittable operator)",
      "n=280 h=17cb8ede6744dd83 m=1 t=211 a=basic s=0 r=[8125] d=split join (ancestor of X_247)",
      "n=283 h=ab67fb2527c25adb m=1 t=115 a=basic s=0 r=[625] d=split join (ancestor of X_118)",
      "n=286 h=d4bfe7ae602ff9cb m=1 t=176 a=basic s=0 r=[19375] d=split join (ancestor of X_200)",
      "n=301 h=760eee279243456e m=1 t=224 a=medium s=0 r=[] d=propagated input union (unsplittable operator)",
      "n=304 h=78db1bd998f79ba3 m=1 t=244 a=basic s=0 r=[4062] d=split join (ancestor of X_289)",
      "n=307 h=fe6e662f9c4c3b86 m=1 t=245 a=basic s=0 r=[4687] d=split join (ancestor of X_290)",
  });
}

// DS3 takes skew-aware splits and propagates unions into their consumers.
TEST_F(MutatorGoldenTest, TpcdsDs3StepsMatchReference) {
  TpcdsConfig cfg;
  cfg.store_sales_rows = 20'000;
  auto cat = Tpcds::Generate(cfg);
  auto ds = Tpcds::Query(*cat, "DS3");
  ASSERT_TRUE(ds.ok());
  ExpectSteps(MutationSteps(ds.ValueOrDie(), 40), {
      "n=12 h=001ab3286797a7b6 m=1 t=2 a=basic s=0 r=[10000] d=split join",
      "n=16 h=c01b72b5286c2522 m=1 t=1 a=basic-skew s=1 r=[7500,12500] d=skew 2.40: value-balanced re-partition of fetchjoin into 3 pieces",
      "n=22 h=08d679ae7b61957f m=1 t=4 a=medium s=0 r=[] d=propagated input union (unsplittable operator)",
      "n=24 h=bcc1da1af5ae9c76 m=1 t=12 a=basic s=0 r=[3750] d=split fetchjoin (ancestor of X_20)",
      "n=28 h=64287a0f77e708da m=1 t=0 a=basic-skew s=1 r=[7500,12500] d=skew 2.40: value-balanced re-partition of select into 3 pieces (ancestor of X_20)",
      "n=31 h=48851cdaf40d0c6a m=1 t=10 a=basic s=0 r=[15000] d=split join (ancestor of X_20)",
      "n=47 h=c5f57a35760a4c4d m=1 t=27 a=medium s=0 r=[] d=propagated union inputs to consumers",
      "n=86 h=2c72f89ffd34969d m=1 t=15 a=medium s=0 r=[] d=propagated union inputs to consumers",
      "n=112 h=5d1d990a0819cc03 m=1 t=19 a=medium s=0 r=[] d=propagated input union (unsplittable operator)",
      "n=115 h=83899975c1fff3d1 m=1 t=56 a=basic s=0 r=[5000] d=split join (ancestor of X_108)",
      "n=118 h=5a114cc199cffe56 m=1 t=52 a=basic s=0 r=[5000] d=split join (ancestor of X_104)",
      "n=121 h=9c059c4fdf46048b m=1 t=49 a=basic s=0 r=[5000] d=split join (ancestor of X_101)",
      "n=124 h=ffea30a8c654e9f2 m=1 t=51 a=basic s=0 r=[5000] d=split join (ancestor of X_103)",
      "n=127 h=1fa9913a0a68ce57 m=1 t=54 a=basic s=0 r=[5000] d=split join (ancestor of X_106)",
      "n=130 h=d3ea0c993c3e7ac2 m=1 t=50 a=basic s=0 r=[5000] d=split join (ancestor of X_102)",
      "n=133 h=a25e10b30f99b1d1 m=1 t=55 a=basic s=0 r=[5000] d=split join (ancestor of X_107)",
      "n=137 h=4ed7ba0c03ce648c m=1 t=45 a=basic-skew s=1 r=[15311,17185] d=skew 2.40: value-balanced re-partition of fetchjoin into 3 pieces (ancestor of X_110)",
      "n=143 h=acd74ce266d709dd m=1 t=108 a=medium s=0 r=[] d=propagated input union (unsplittable operator)",
      "n=149 h=0fab86ad3b85b816 m=1 t=106 a=medium s=0 r=[] d=propagated input union (unsplittable operator)",
      "n=152 h=6815c2d1da6f1e5f m=1 t=24 a=basic s=0 r=[3750] d=split select (ancestor of X_99)",
      "n=155 h=7f73fe2629d5b7c5 m=1 t=124 a=basic s=0 r=[2500] d=split join (ancestor of X_146)",
      "n=159 h=f28cfca8ee08b08c m=1 t=43 a=basic-skew s=1 r=[15311,17185] d=skew 2.40: value-balanced re-partition of fetchjoin into 3 pieces (ancestor of X_141)",
      "n=165 h=5a565a495a2846aa m=1 t=103 a=medium s=0 r=[] d=propagated input union (unsplittable operator)",
      "n=171 h=0faa359593451e46 m=1 t=104 a=medium s=0 r=[] d=propagated input union (unsplittable operator)",
      "n=174 h=af3d771c65bf8cf1 m=1 t=26 a=basic s=0 r=[16250] d=split select (ancestor of X_168)",
      "n=176 h=39bbaa3e54d95578 m=1 t=63 a=basic s=0 r=[12500] d=split join (ancestor of X_20)",
      "n=179 h=10143b44946cc701 m=1 t=44 a=basic s=0 r=[16250] d=split fetchjoin (ancestor of X_109)",
      "n=185 h=5c624086ffa6a063 m=1 t=107 a=medium s=0 r=[] d=propagated input union (unsplittable operator)",
      "n=188 h=d974f9b45da75ad8 m=1 t=41 a=basic s=0 r=[10000] d=split fetchjoin (ancestor of X_183)",
      "n=191 h=5f0d02fa1620ad74 m=1 t=112 a=basic s=0 r=[2500] d=split join (ancestor of X_140)",
      "n=193 h=5102a21440441094 m=1 t=74 a=basic s=0 r=[17500] d=split join (ancestor of X_20)",
      "n=195 h=2dc1cf1b607be3ee m=1 t=172 a=basic s=0 r=[18125] d=split select (ancestor of X_169)",
      "n=198 h=a4c8ca1b4f1698df m=1 t=121 a=basic s=0 r=[2500] d=split join (ancestor of X_162)",
      "n=204 h=315f0125c8eceab2 m=1 t=146 a=medium s=0 r=[] d=propagated input union (unsplittable operator)",
      "n=207 h=d2f4e76e8b4b43e1 m=1 t=25 a=basic s=0 r=[10000] d=split select (ancestor of X_147)",
      "n=210 h=e500df7ad331f34c m=1 t=47 a=basic s=0 r=[5000] d=split join (ancestor of X_99)",
      "n=213 h=3d157cd67fb70a80 m=1 t=131 a=basic s=0 r=[7500] d=split join (ancestor of X_183)",
      "n=216 h=c571bf5fcbfcd2f2 m=1 t=115 a=basic s=0 r=[2500] d=split join (ancestor of X_168)",
      "n=219 h=efb426e51fa8ba71 m=1 t=48 a=basic s=0 r=[5000] d=split join (ancestor of X_100)",
      "n=221 h=6db9a096aef4116a m=1 t=204 a=basic s=0 r=[8750] d=split select (ancestor of X_163)",
  });
}

}  // namespace
}  // namespace apq

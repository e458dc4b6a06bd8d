// The parallel aggregation subsystem (exec/agg/): AggTable unit tests, and —
// above all — differential tests of morsel-parallel group-by ingest, grouped
// aggregation, and hash-join probe against the scalar interpreter and the
// whole-column kernels, across morsel sizes, worker counts, key
// distributions, and all aggregate functions. Group ids must reproduce the
// scalar first-occurrence numbering bit-for-bit; join pairs must concatenate
// in morsel (= input) order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <thread>
#include <unordered_map>

#include "engine/engine.h"
#include "exec/agg/agg_table.h"
#include "exec/agg/parallel_agg.h"
#include "exec/compare.h"
#include "exec/evaluator.h"
#include "exec/simd/simd_ops.h"
#include "plan/builder.h"
#include "util/rng.h"

namespace apq {
namespace {

// The morsel sizes the acceptance criteria call out: pathological (1), odd
// (7), sub-default (4096), default (64K), and larger than any test table.
const uint64_t kMorselSizes[] = {1, 7, 4096, 64 * 1024, 1 << 30};
const AggFn kAllAggFns[] = {AggFn::kSum, AggFn::kAvg, AggFn::kCount,
                            AggFn::kMin, AggFn::kMax};

// Dispatch tiers this host can execute (the scalar table is all-null, so
// routing through it is the row-at-a-time fold).
std::vector<simd::SimdLevel> HostTiers() {
  std::vector<simd::SimdLevel> tiers = {simd::SimdLevel::kScalar};
  for (simd::SimdLevel l : {simd::SimdLevel::kAvx2, simd::SimdLevel::kAvx512}) {
    if (simd::LevelSupported(l)) tiers.push_back(l);
  }
  return tiers;
}

// ---- AggTable --------------------------------------------------------------

TEST(AggTableTest, AssignsSlotsInInsertionOrder) {
  AggTable t;
  EXPECT_EQ(t.FindOrInsert(42, 0), 0u);
  EXPECT_EQ(t.FindOrInsert(-7, 1), 1u);
  EXPECT_EQ(t.FindOrInsert(42, 2), 0u);  // existing key keeps its slot
  EXPECT_EQ(t.FindOrInsert(0, 3), 2u);
  EXPECT_EQ(t.num_groups(), 3u);
  EXPECT_EQ(t.key(0), 42);
  EXPECT_EQ(t.key(1), -7);
  EXPECT_EQ(t.key(2), 0);
}

TEST(AggTableTest, FindNeverInserts) {
  AggTable t;
  EXPECT_EQ(t.Find(5), AggTable::kNoSlot);
  t.FindOrInsert(5, 0);
  EXPECT_EQ(t.Find(5), 0u);
  EXPECT_EQ(t.Find(6), AggTable::kNoSlot);
  EXPECT_EQ(t.num_groups(), 1u);
}

TEST(AggTableTest, FirstPosKeepsMinimumAcrossArbitraryIngestOrder) {
  // Positions arrive out of order (work stealing): the slot must remember
  // the minimum, which is what makes the merge schedule-invariant.
  AggTable t;
  t.FindOrInsert(9, 350000);
  t.FindOrInsert(9, 130000);
  t.FindOrInsert(9, 990000);
  EXPECT_EQ(t.first_pos(t.Find(9)), 130000u);
}

TEST(AggTableTest, GrowsPastInitialCapacityWithoutLosingKeys) {
  AggTable t;  // minimal initial buckets: forces several rehashes
  const int64_t n = 100000;
  for (int64_t k = 0; k < n; ++k) {
    EXPECT_EQ(t.FindOrInsert(k * 7919 - 123, static_cast<uint64_t>(k)),
              static_cast<uint32_t>(k));
  }
  ASSERT_EQ(t.num_groups(), static_cast<uint64_t>(n));
  for (int64_t k = 0; k < n; ++k) {
    const uint32_t slot = t.Find(k * 7919 - 123);
    ASSERT_EQ(slot, static_cast<uint32_t>(k));
    EXPECT_EQ(t.first_pos(slot), static_cast<uint64_t>(k));
  }
}

TEST(AggTableTest, UpdateMatchesScalarFoldForEveryAggFn) {
  Rng rng(5);
  std::vector<int64_t> keys(5000);
  std::vector<double> vals(5000);
  for (auto& k : keys) k = rng.UniformRange(0, 49);
  for (auto& v : vals) v = rng.NextDouble() * 100 - 50;

  for (AggFn fn : kAllAggFns) {
    AggTable t;
    for (size_t i = 0; i < keys.size(); ++i) {
      t.Update(fn, keys[i], vals[i], i);
    }
    // Scalar reference fold, same init and order.
    std::unordered_map<int64_t, std::pair<double, int64_t>> ref;
    for (size_t i = 0; i < keys.size(); ++i) {
      double init = fn == AggFn::kMin ? 1e300
                   : fn == AggFn::kMax ? -1e300
                                       : 0.0;
      auto [it, ins] = ref.emplace(keys[i], std::make_pair(init, int64_t{0}));
      switch (fn) {
        case AggFn::kSum:
        case AggFn::kAvg: it->second.first += vals[i]; break;
        case AggFn::kCount: it->second.first += 1.0; break;
        case AggFn::kMin:
          it->second.first = std::min(it->second.first, vals[i]);
          break;
        case AggFn::kMax:
          it->second.first = std::max(it->second.first, vals[i]);
          break;
        case AggFn::kNone: break;
      }
      it->second.second += 1;
    }
    ASSERT_EQ(t.num_groups(), ref.size()) << AggFnName(fn);
    for (uint32_t s = 0; s < t.num_groups(); ++s) {
      const auto& expect = ref.at(t.key(s));
      EXPECT_DOUBLE_EQ(t.agg_val(s), expect.first)
          << AggFnName(fn) << " key " << t.key(s);
      EXPECT_EQ(t.agg_count(s), expect.second) << AggFnName(fn);
    }
  }
}

// ---- ParallelGroupBy (function level) --------------------------------------

// Scalar reference: the evaluator's sequential insert loop.
void ReferenceGroupBy(const std::vector<int64_t>& keys,
                      std::vector<int64_t>* gids,
                      std::vector<int64_t>* uniq) {
  std::unordered_map<int64_t, int64_t> map;
  for (int64_t k : keys) {
    auto [it, ins] = map.emplace(k, static_cast<int64_t>(map.size()));
    if (ins) uniq->push_back(k);
    gids->push_back(it->second);
  }
}

class ParallelGroupByTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelGroupByTest, BitIdenticalToScalarAcrossMorselSizes) {
  const int workers = GetParam();
  MorselScheduler sched(workers);
  Rng rng(13);
  std::vector<int64_t> keys(30000);
  for (auto& k : keys) k = rng.UniformRange(0, 999);

  std::vector<int64_t> ref_gids, ref_keys;
  ReferenceGroupBy(keys, &ref_gids, &ref_keys);

  for (uint64_t rows : kMorselSizes) {
    ParallelAggOptions o;
    o.morsel_rows = rows;
    o.scheduler = &sched;
    std::vector<int64_t> gids, uniq;
    std::vector<MorselMetrics> mm;
    const size_t nm = ParallelGroupBy(keys.data(), keys.size(), o, &gids,
                                      &uniq, &mm);
    if (nm == 0) continue;  // one morsel: sequential path's job
    EXPECT_EQ(gids, ref_gids) << "rows=" << rows << " workers=" << workers;
    EXPECT_EQ(uniq, ref_keys) << "rows=" << rows << " workers=" << workers;
    ASSERT_EQ(mm.size(), nm);
    uint64_t in = 0;
    for (const auto& ms : mm) in += ms.tuples_in;
    EXPECT_EQ(in, keys.size());
  }
}

TEST_P(ParallelGroupByTest, AllDistinctAndSingleGroupExtremes) {
  const int workers = GetParam();
  MorselScheduler sched(workers);
  for (bool distinct : {true, false}) {
    std::vector<int64_t> keys(20000);
    for (size_t i = 0; i < keys.size(); ++i) {
      keys[i] = distinct ? static_cast<int64_t>(keys.size() - i) : 77;
    }
    std::vector<int64_t> ref_gids, ref_keys;
    ReferenceGroupBy(keys, &ref_gids, &ref_keys);
    ParallelAggOptions o;
    o.morsel_rows = 512;
    o.scheduler = &sched;
    std::vector<int64_t> gids, uniq;
    std::vector<MorselMetrics> mm;
    ASSERT_GT(ParallelGroupBy(keys.data(), keys.size(), o, &gids, &uniq, &mm),
              0u);
    EXPECT_EQ(gids, ref_gids) << "distinct=" << distinct;
    EXPECT_EQ(uniq, ref_keys) << "distinct=" << distinct;
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelGroupByTest,
                         ::testing::Values(1, 2, 4, 8));

// ---- ParallelGroupedAgg (function level) -----------------------------------

// Reference fold at fixed blocks: each block folds its rows sequentially
// from the fn's identity, then the blocks fold into the output in block
// order, skipping groups a block never saw.
void ReferenceBlockFold(const std::vector<int64_t>& gids,
                        const std::vector<double>& vals, AggFn fn,
                        uint64_t ngroups, uint64_t fold_rows,
                        std::vector<double>* out_vals,
                        std::vector<int64_t>* out_counts) {
  const double init = fn == AggFn::kMin ? 1e300
                      : fn == AggFn::kMax ? -1e300
                                          : 0.0;
  auto fold = [fn](double acc, double v) {
    switch (fn) {
      case AggFn::kSum:
      case AggFn::kAvg: return acc + v;
      case AggFn::kCount: return acc + 1.0;
      case AggFn::kMin: return std::min(acc, v);
      case AggFn::kMax: return std::max(acc, v);
      case AggFn::kNone: break;
    }
    return acc;
  };
  out_vals->assign(ngroups, init);
  out_counts->assign(ngroups, 0);
  for (uint64_t b = 0; b < gids.size(); b += fold_rows) {
    const uint64_t e = std::min<uint64_t>(gids.size(), b + fold_rows);
    std::vector<double> pv(ngroups, init);
    std::vector<int64_t> pc(ngroups, 0);
    for (uint64_t i = b; i < e; ++i) {
      pv[gids[i]] = fold(pv[gids[i]], vals[i]);
      ++pc[gids[i]];
    }
    for (uint64_t g = 0; g < ngroups; ++g) {
      if (pc[g] == 0) continue;
      (*out_vals)[g] = fn == AggFn::kCount || fn == AggFn::kSum ||
                               fn == AggFn::kAvg
                           ? (*out_vals)[g] + pv[g]
                           : fold((*out_vals)[g], pv[g]);
      (*out_counts)[g] += pc[g];
    }
  }
}

class ParallelGroupedAggTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelGroupedAggTest, FoldsAtFixedBlocksAtAnyMorselSize) {
  // The block size, not the morsel size, fixes how partial sums associate:
  // every morsel size and worker count must produce the reference block
  // fold's exact bytes, on the flat (few groups) and hash (many groups)
  // paths alike.
  const int workers = GetParam();
  MorselScheduler sched(workers);
  const uint64_t n = 3 * kAggFoldRows + 123;  // four blocks, one partial
  Rng rng(29);
  for (uint64_t ngroups : {uint64_t{37}, uint64_t{6000}}) {
    std::vector<int64_t> gids(n);
    std::vector<double> vals(gids.size());
    for (size_t i = 0; i < gids.size(); ++i) {
      gids[i] = rng.UniformRange(0, static_cast<int64_t>(ngroups) - 1);
      vals[i] = (i % 2 == 0 ? 1e12 : -1e12) + rng.NextDouble();
    }
    for (AggFn fn : kAllAggFns) {
      std::vector<double> ref_vals;
      std::vector<int64_t> ref_counts;
      ReferenceBlockFold(gids, vals, fn, ngroups, kAggFoldRows, &ref_vals,
                         &ref_counts);
      for (uint64_t rows : kMorselSizes) {
        SCOPED_TRACE(std::string(AggFnName(fn)) +
                     " ngroups=" + std::to_string(ngroups) +
                     " rows=" + std::to_string(rows));
        ParallelAggOptions o;
        o.morsel_rows = rows;
        o.scheduler = &sched;
        const double init = fn == AggFn::kMin ? 1e300
                            : fn == AggFn::kMax ? -1e300
                                                : 0.0;
        std::vector<double> got_vals(ngroups, init);
        std::vector<int64_t> got_counts(ngroups, 0);
        ASSERT_EQ(ParallelGroupedAgg(gids.data(), gids.size(), vals.data(),
                                     nullptr, fn, ngroups, o, got_vals.data(),
                                     got_counts.data()),
                  4u);
        EXPECT_EQ(std::memcmp(got_vals.data(), ref_vals.data(),
                              ngroups * sizeof(double)),
                  0);
        EXPECT_EQ(got_counts, ref_counts);
      }
    }
  }
}

TEST_P(ParallelGroupedAggTest, I64ValuesFoldIdenticallyAtEveryTier) {
  // The flat path folds runs of equal group ids with the SIMD kernels:
  // MIN/MAX always, SUM/AVG as one exact integer sum when a block's values
  // are small enough that every partial stays below 2^53. Values in
  // [-1000, 1000] take that exact sum; values near 2^50 fall back to the
  // row loop. Both must give the reference block fold's bytes at every
  // tier the host runs.
  MorselScheduler sched(GetParam());
  const uint64_t n = 3 * kAggFoldRows + 123;
  const uint64_t ngroups = 37;
  Rng rng(31);
  std::vector<int64_t> gids(n);
  for (uint64_t i = 0; i < n;) {  // runs of 1..64 equal ids
    const int64_t g = rng.UniformRange(0, ngroups - 1);
    for (int64_t k = rng.UniformRange(1, 64); k > 0 && i < n; --k) {
      gids[i++] = g;
    }
  }
  for (int64_t bound : {int64_t{1000}, int64_t{1} << 50}) {
    std::vector<int64_t> vi(n);
    std::vector<double> vd(n);
    for (uint64_t i = 0; i < n; ++i) {
      vi[i] = rng.UniformRange(-bound, bound);
      vd[i] = static_cast<double>(vi[i]);
    }
    for (AggFn fn : kAllAggFns) {
      std::vector<double> ref_vals;
      std::vector<int64_t> ref_counts;
      ReferenceBlockFold(gids, vd, fn, ngroups, kAggFoldRows, &ref_vals,
                         &ref_counts);
      for (simd::SimdLevel tier : HostTiers()) {
        for (uint64_t rows : {uint64_t{4096}, kDefaultMorselRows}) {
          SCOPED_TRACE(std::string(AggFnName(fn)) +
                       " bound=" + std::to_string(bound) +
                       " tier=" + simd::LevelName(tier) +
                       " rows=" + std::to_string(rows));
          ParallelAggOptions o;
          o.morsel_rows = rows;
          o.scheduler = &sched;
          o.simd = &simd::OpsFor(tier);
          const double init = fn == AggFn::kMin ? 1e300
                              : fn == AggFn::kMax ? -1e300
                                                  : 0.0;
          std::vector<double> got_vals(ngroups, init);
          std::vector<int64_t> got_counts(ngroups, 0);
          ASSERT_EQ(ParallelGroupedAgg(gids.data(), n, nullptr, vi.data(), fn,
                                       ngroups, o, got_vals.data(),
                                       got_counts.data()),
                    4u);
          EXPECT_EQ(std::memcmp(got_vals.data(), ref_vals.data(),
                                ngroups * sizeof(double)),
                    0);
          EXPECT_EQ(got_counts, ref_counts);
        }
      }
    }
  }
}

TEST_P(ParallelGroupedAggTest, OneBlockDeclinesToTheSequentialLoop) {
  MorselScheduler sched(GetParam());
  std::vector<int64_t> gids(kAggFoldRows, 0);
  std::vector<double> vals(kAggFoldRows, 1.5);
  ParallelAggOptions o;
  o.morsel_rows = 7;  // many morsels, but a single fold block
  o.scheduler = &sched;
  double v = 0;
  int64_t c = 0;
  EXPECT_EQ(ParallelGroupedAgg(gids.data(), gids.size(), vals.data(), nullptr,
                               AggFn::kSum, 1, o, &v, &c),
            0u);
  EXPECT_EQ(c, 0);  // nothing written
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelGroupedAggTest,
                         ::testing::Values(1, 2, 4, 8));

// ---- evaluator-level differential ------------------------------------------

class ParallelAggEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(21);
    const uint64_t n = 25000;
    std::vector<int64_t> kv(n), fkv(n);
    std::vector<double> vv(n);
    for (auto& v : kv) v = rng.UniformRange(0, 499);
    for (auto& v : fkv) v = rng.UniformRange(0, 799);
    for (auto& v : vv) v = rng.NextDouble() * 10;
    keys_ = Column::MakeInt64("keys", std::move(kv));
    fk_ = Column::MakeInt64("fk", std::move(fkv));
    vals_ = Column::MakeFloat64("vals", std::move(vv));
    std::vector<int64_t> pkv(800);
    for (size_t i = 0; i < pkv.size(); ++i) pkv[i] = static_cast<int64_t>(i);
    pk_ = Column::MakeInt64("pk", std::move(pkv));
  }

  // select -> fetch keys -> groupby -> grouped agg over fetched values.
  QueryPlan GroupAggPlan(AggFn fn, int64_t hi = 399) {
    PlanBuilder b("groupagg");
    int s = b.Select(keys_.get(), Predicate::RangeI64(0, hi));
    int fk = b.FetchJoin(keys_.get(), s);
    int g = b.GroupBy(fk);
    int fv = b.FetchJoin(vals_.get(), s);
    int a = b.AggGrouped(fn, g, fn == AggFn::kCount ? -1 : fv);
    return b.Result(a);
  }

  // select -> fetch fk values -> hash-join probe against pk.
  QueryPlan ProbePlan(int64_t hi = 599) {
    PlanBuilder b("probe");
    int s = b.Select(fk_.get(), Predicate::RangeI64(0, hi));
    int f = b.FetchJoin(fk_.get(), s);
    int j = b.Join(f, pk_.get());
    return b.Result(j);
  }

  static EvalResult Run(const QueryPlan& plan, ExecOptions o,
                        int workers = 0) {
    Evaluator eval(o, workers > 0 ? std::make_shared<MorselScheduler>(workers)
                                  : nullptr);
    EvalResult er;
    EXPECT_TRUE(eval.Execute(plan, &er).ok());
    return er;
  }

  // Runs `plan` through scalar interpreter, whole-column kernels, and the
  // parallel tier at every (morsel size x worker count); all three must
  // agree, and kGroups/kPairs intermediates must agree *bit-identically*
  // (vector equality, not just semantic DiffIntermediates).
  void ExpectParallelMatches(const QueryPlan& plan) {
    ExecOptions scalar;
    scalar.use_kernels = false;
    EvalResult ref = Run(plan, scalar);
    EvalResult base = Run(plan, ExecOptions{});
    ASSERT_EQ(DiffIntermediates(ref.result, base.result), "");

    for (uint64_t rows : kMorselSizes) {
      for (int workers : {1, 2, 4, 8}) {
        ExecOptions o;
        o.morsel_rows = rows;
        EvalResult got = Run(plan, o, workers);
        EXPECT_EQ(DiffIntermediates(base.result, got.result), "")
            << "rows=" << rows << " workers=" << workers;
        ASSERT_EQ(base.intermediates.size(), got.intermediates.size());
        for (const auto& [id, inter] : base.intermediates) {
          const Intermediate& other = got.intermediates.at(id);
          if (inter.kind == Intermediate::Kind::kGroups) {
            EXPECT_EQ(inter.group_ids, other.group_ids)
                << "node " << id << " rows=" << rows << " workers=" << workers;
            EXPECT_EQ(inter.group_keys.i64, other.group_keys.i64)
                << "node " << id;
          } else if (inter.kind == Intermediate::Kind::kPairs) {
            EXPECT_EQ(inter.rowids, other.rowids) << "node " << id;
            EXPECT_EQ(inter.rrowids, other.rrowids) << "node " << id;
          } else {
            EXPECT_EQ(DiffIntermediates(inter, other), "") << "node " << id;
          }
        }
      }
    }
  }

  ColumnPtr keys_, fk_, vals_, pk_;
};

TEST_F(ParallelAggEvalTest, GroupByAndGroupedAggAllFns) {
  for (AggFn fn : kAllAggFns) {
    SCOPED_TRACE(AggFnName(fn));
    ExpectParallelMatches(GroupAggPlan(fn));
  }
}

TEST_F(ParallelAggEvalTest, LeafGroupByOverBaseColumn) {
  PlanBuilder b("leafgroup");
  int g = b.GroupByLeaf(keys_.get());
  ExpectParallelMatches(b.Result(g));
}

TEST_F(ParallelAggEvalTest, EmptyTable) {
  auto empty = Column::MakeInt64("e", {});
  PlanBuilder b("empty");
  int g = b.GroupByLeaf(empty.get());
  ExpectParallelMatches(b.Result(g));
}

TEST_F(ParallelAggEvalTest, SingleGroupAndAllDistinct) {
  auto ones = Column::MakeInt64("ones", std::vector<int64_t>(20000, 1));
  std::vector<int64_t> dv(20000);
  for (size_t i = 0; i < dv.size(); ++i) {
    dv[i] = static_cast<int64_t>(dv.size() - i);
  }
  auto dist = Column::MakeInt64("dist", std::move(dv));
  for (const Column* col : {ones.get(), dist.get()}) {
    PlanBuilder b("extreme");
    int g = b.GroupByLeaf(col);
    int a = b.AggGrouped(AggFn::kCount, g);
    ExpectParallelMatches(b.Result(a));
  }
}

TEST_F(ParallelAggEvalTest, JoinProbeMatchesAcrossMorselSizes) {
  ExpectParallelMatches(ProbePlan());
}

TEST_F(ParallelAggEvalTest, LeafJoinProbe) {
  PlanBuilder b("leafjoin");
  int j = b.JoinLeaf(fk_.get(), pk_.get());
  ExpectParallelMatches(b.Result(j));
}

TEST_F(ParallelAggEvalTest, RowIdInputJoinProbe) {
  // Join over a row-id candidate list (outer column bound on the node):
  // probes gather outer.i64()[row] per candidate.
  PlanBuilder b("rowidjoin");
  int s = b.Select(fk_.get(), Predicate::RangeI64(0, 599));
  int j = b.Join(s, pk_.get());
  QueryPlan plan = b.Result(j);
  plan.node(j).column = fk_.get();
  ASSERT_TRUE(plan.Validate().ok());
  ExpectParallelMatches(plan);
}

TEST_F(ParallelAggEvalTest, SlicedProbeClipsIdenticallyToSequential) {
  // A sliced join clone (the exchange mutation's shape): out-of-slice outer
  // rows are skipped; morsel fragments must reproduce the clipped pair list.
  PlanBuilder b("sliced");
  int s = b.Select(fk_.get(), Predicate::RangeI64(0, 799));
  int f = b.FetchJoin(fk_.get(), s);
  int j = b.Join(f, pk_.get());
  QueryPlan plan = b.Result(j);
  plan.node(j).has_slice = true;
  plan.node(j).slice = RowRange{3000, 17000};
  ASSERT_TRUE(plan.Validate().ok());
  ExpectParallelMatches(plan);
}

TEST_F(ParallelAggEvalTest, PerMorselCountsSumToOperatorTotals) {
  ExecOptions o;
  o.morsel_rows = 1024;
  Evaluator eval(o, std::make_shared<MorselScheduler>(4));
  EvalResult er;
  ASSERT_TRUE(eval.Execute(GroupAggPlan(AggFn::kSum, /*hi=*/499), &er).ok());
  EvalResult jr;
  ASSERT_TRUE(eval.Execute(ProbePlan(), &jr).ok());

  bool saw_groupby = false, saw_join = false;
  auto check = [&](const EvalResult& r) {
    for (const auto& m : r.metrics) {
      if (m.morsels.empty()) continue;
      if (m.kind == OpKind::kGroupBy) saw_groupby = true;
      if (m.kind == OpKind::kJoin) saw_join = true;
      uint64_t in = 0, out = 0;
      for (const auto& ms : m.morsels) {
        in += ms.tuples_in;
        out += ms.tuples_out;
      }
      EXPECT_EQ(in, m.tuples_in) << OpKindName(m.kind);
      EXPECT_EQ(out, m.tuples_out) << OpKindName(m.kind);
    }
  };
  check(er);
  check(jr);
  // 25000-row inputs at 1024-row morsels must have split the group-by and
  // the probe — unless APQ_FORCE_MORSELS raised the morsel size past them.
  if (eval.EffectiveMorselRows() < 20000) {
    EXPECT_TRUE(saw_groupby);
    EXPECT_TRUE(saw_join);
  }
}

TEST_F(ParallelAggEvalTest, DeterministicAcrossRepeatedRuns) {
  ExecOptions o;
  o.morsel_rows = 512;
  Evaluator eval(o, std::make_shared<MorselScheduler>(4));
  QueryPlan plan = GroupAggPlan(AggFn::kAvg);
  EvalResult first;
  ASSERT_TRUE(eval.Execute(plan, &first).ok());
  for (int rep = 0; rep < 5; ++rep) {
    EvalResult again;
    ASSERT_TRUE(eval.Execute(plan, &again).ok());
    // Bit-exact repeatability (not just tolerance) of the morsel-parallel
    // select, fetches and group-by under stealing. The grouped AVG's 25,000
    // rows fit one fold block, so it takes the sequential loop here;
    // GroupedAggMorselSizeTest compares multi-block fold bytes across
    // fleets and morsel sizes.
    ASSERT_EQ(first.result.agg_vals.size(), again.result.agg_vals.size());
    for (size_t g = 0; g < first.result.agg_vals.size(); ++g) {
      EXPECT_EQ(first.result.agg_vals[g], again.result.agg_vals[g]) << rep;
    }
    EXPECT_EQ(first.result.agg_counts, again.result.agg_counts) << rep;
    EXPECT_EQ(first.result.group_keys.i64, again.result.group_keys.i64) << rep;
  }
}

TEST(GroupedAggOracleTest, MultiBlockInputsMatchTheScalarInterpreter) {
  // Inputs under two fold blocks take the operator's sequential loop at any
  // morsel size, so the fixtures above (25,000 rows) never reach
  // ParallelGroupedAgg. This input spans four blocks. Every AggFn over i64
  // and f64 values, the flat (37 groups) and hash (6000 groups) merges,
  // every host SIMD tier and fleets of 1/2/4/8 must match the scalar
  // interpreter: bit-identical where the fold is exact (COUNT, MIN, MAX,
  // and SUM/AVG of small integers), within the compare tolerance for f64
  // SUM/AVG, whose partial sums associate at block boundaries.
  const uint64_t n = 3 * kAggFoldRows + 123;
  Rng rng(43);
  std::vector<int64_t> iv(n);
  std::vector<double> fv(n);
  for (uint64_t i = 0; i < n; ++i) {
    iv[i] = rng.UniformRange(-1000, 1000);
    fv[i] = rng.NextDouble() * 1000.0 - 500.0;
  }
  auto ints = Column::MakeInt64("ints", std::move(iv));
  auto floats = Column::MakeFloat64("floats", std::move(fv));
  ExecOptions scalar_opts;
  scalar_opts.use_kernels = false;
  Evaluator scalar(scalar_opts);
  for (int64_t ngroups : {int64_t{37}, int64_t{6000}}) {
    // Runs of 1..64 equal keys, so the flat path's SIMD run folds engage.
    std::vector<int64_t> kv(n);
    for (uint64_t i = 0; i < n;) {
      const int64_t k = rng.UniformRange(0, ngroups - 1);
      for (int64_t r = rng.UniformRange(1, 64); r > 0 && i < n; --r) {
        kv[i++] = k;
      }
    }
    auto keys = Column::MakeInt64("keys", std::move(kv));
    for (const Column* col : {ints.get(), floats.get()}) {
      const bool is_i64 = col == ints.get();
      for (AggFn fn : kAllAggFns) {
        PlanBuilder b("oracle");
        int g = b.GroupByLeaf(keys.get());
        int s = b.Select(col, is_i64 ? Predicate::RangeI64(-1000, 1000)
                                     : Predicate::RangeF64(-1e300, 1e300));
        int f = b.FetchJoin(col, s);
        QueryPlan plan =
            b.Result(b.AggGrouped(fn, g, fn == AggFn::kCount ? -1 : f));
        EvalResult want;
        ASSERT_TRUE(scalar.Execute(plan, &want).ok());
        const bool exact = is_i64 || (fn != AggFn::kSum && fn != AggFn::kAvg);
        for (simd::SimdLevel tier : HostTiers()) {
          for (int workers : {1, 2, 4, 8}) {
            SCOPED_TRACE(std::string(AggFnName(fn)) + " " + col->name() +
                         " ngroups=" + std::to_string(ngroups) +
                         " tier=" + simd::LevelName(tier) +
                         " workers=" + std::to_string(workers));
            ExecOptions o;
            o.simd_level = tier;
            Evaluator eval(o, std::make_shared<MorselScheduler>(workers));
            EvalResult got;
            ASSERT_TRUE(eval.Execute(plan, &got).ok());
            EXPECT_EQ(DiffIntermediates(want.result, got.result), "");
            EXPECT_EQ(want.result.agg_counts, got.result.agg_counts);
            if (exact) {
              ASSERT_EQ(want.result.agg_vals.size(),
                        got.result.agg_vals.size());
              EXPECT_EQ(std::memcmp(want.result.agg_vals.data(),
                                    got.result.agg_vals.data(),
                                    want.result.agg_vals.size() *
                                        sizeof(double)),
                        0);
            }
          }
        }
      }
    }
  }
}

TEST(GroupedAggMorselSizeTest, SumBytesDoNotDependOnMorselSize) {
  // The served configuration: the admission grant scales morsel_rows and
  // APQ_FORCE_MORSELS overrides it. Cancellation-prone f64 sums over more
  // than one fold block must come out byte-identical at every morsel size
  // and fleet size. The runs compare with each other, not with the scalar
  // interpreter: on this data any two fold orders differ far past the
  // compare tolerance (GroupedAggOracleTest covers the oracle).
  Rng rng(41);
  const uint64_t n = 200000;
  std::vector<int64_t> kv(n);
  std::vector<double> vv(n);
  for (uint64_t i = 0; i < n; ++i) {
    kv[i] = rng.UniformRange(0, 7);
    vv[i] = (i % 2 == 0 ? 1e16 : -1e16) + rng.NextDouble() * 1000;
  }
  auto keys = Column::MakeInt64("keys", std::move(kv));
  auto vals = Column::MakeFloat64("vals", std::move(vv));
  for (AggFn fn : {AggFn::kSum, AggFn::kAvg}) {
    PlanBuilder b(AggFnName(fn));
    int g = b.GroupByLeaf(keys.get());
    int s = b.Select(vals.get(), Predicate::RangeF64(-1e300, 1e300));
    int f = b.FetchJoin(vals.get(), s);
    QueryPlan plan = b.Result(b.AggGrouped(fn, g, f));
    std::vector<double> first;
    for (uint64_t rows : {uint64_t{512}, uint64_t{4096}, uint64_t{65536},
                          uint64_t{1} << 20}) {
      for (int workers : {1, 4}) {
        EngineConfig cfg;
        cfg.morsel_rows = rows;
        cfg.morsel_scheduler = std::make_shared<MorselScheduler>(workers);
        Engine engine(cfg);
        auto run = engine.RunPlan(plan);
        ASSERT_TRUE(run.ok());
        const std::vector<double>& got = run.ValueOrDie().result.agg_vals;
        ASSERT_EQ(got.size(), 8u);
        if (first.empty()) {
          first = got;
          continue;
        }
        EXPECT_EQ(std::memcmp(got.data(), first.data(),
                              got.size() * sizeof(double)),
                  0)
            << AggFnName(fn) << " rows=" << rows << " workers=" << workers;
      }
    }
  }
}

// ---- wall-clock speedup (gated on real cores) ------------------------------

TEST(ParallelAggSpeedupTest, ParallelGroupByBeatsSequentialOnMulticore) {
  if (std::thread::hardware_concurrency() < 4) {
    GTEST_SKIP() << "needs >= 4 hardware threads; correctness/determinism "
                    "suites gate on this machine";
  }
  Rng rng(3);
  std::vector<int64_t> kv(1 << 23);  // 8M rows
  for (auto& v : kv) v = rng.UniformRange(0, 9999);
  auto col = Column::MakeInt64("big", std::move(kv));
  PlanBuilder b("group");
  int g = b.GroupByLeaf(col.get());
  QueryPlan plan = b.Result(g);

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
  whole_o.morsel_rows = 1 << 23;
  Evaluator whole(whole_o, std::make_shared<MorselScheduler>(1));
  Evaluator par(ExecOptions{}, std::make_shared<MorselScheduler>(4));
  EXPECT_LT(best_of(par), best_of(whole))
      << "morsel-parallel group-by ingest should beat the sequential loop "
         "on >= 4 cores";
}

}  // namespace
}  // namespace apq

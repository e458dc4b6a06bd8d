// Differential tests for the kernel tier's maps, join probes and group-by
// ingest: every intermediate of a plan run on the kernels must equal the
// scalar interpreter's byte for byte (values, heads, pairs, group ids and
// keys) at morsel sizes 1, 7, 4096 and whole-input, on fleets of 1 and 4
// workers. Maps and probes write shared outputs from worker threads, so this
// suite also runs under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/evaluator.h"
#include "plan/builder.h"
#include "sched/morsel_scheduler.h"
#include "util/rng.h"

namespace apq {
namespace {

constexpr uint64_t kWholeInput = uint64_t{1} << 30;
const uint64_t kMorselRows[] = {1, 7, 4096, kWholeInput};

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool SameBytes(const ValueVec& a, const ValueVec& b) {
  return a.type == b.type && a.dict == b.dict && SameBytes(a.i64, b.i64) &&
         SameBytes(a.f64, b.f64);
}

// Empty string when a and b are byte-identical, else the first field that
// differs.
std::string BytesDiff(const Intermediate& a, const Intermediate& b) {
  if (a.kind != b.kind) return "kind";
  if (a.origin.begin != b.origin.begin || a.origin.end != b.origin.end) {
    return "origin";
  }
  if (!SameBytes(a.rowids, b.rowids)) return "rowids";
  if (!SameBytes(a.rrowids, b.rrowids)) return "rrowids";
  if (!SameBytes(a.values, b.values)) return "values";
  if (!SameBytes(a.head.vec(), b.head.vec())) return "head";
  if (!SameBytes(a.group_ids, b.group_ids)) return "group_ids";
  if (!SameBytes(a.group_keys, b.group_keys)) return "group_keys";
  if (!SameBytes(a.agg_vals, b.agg_vals)) return "agg_vals";
  if (!SameBytes(a.agg_counts, b.agg_counts)) return "agg_counts";
  if (std::memcmp(&a.scalar, &b.scalar, sizeof(double)) != 0) return "scalar";
  if (a.scalar_count != b.scalar_count) return "scalar_count";
  return "";
}

class KernelOpsDiffTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRows = 2000;

  void SetUp() override {
    Rng rng(11);
    std::vector<int64_t> iv(kRows), keys(kRows), groups(kRows);
    std::vector<double> fv(kRows), fint(kRows);
    std::vector<std::string> sv(kRows);
    const std::vector<std::string> words = {"apple", "banana", "apricot",
                                            "cherry", "grape", "papaya"};
    for (uint64_t i = 0; i < kRows; ++i) {
      iv[i] = rng.UniformRange(-3, 40);  // zeros: kDiv by zero
      // Every 9th float is an exact zero divisor.
      fv[i] = i % 9 == 0 ? 0.0 : rng.NextDouble() * 4.0 - 2.0;
      fint[i] = static_cast<double>(rng.UniformRange(0, 60));
      sv[i] = words[rng.UniformRange(0, 5)];
      keys[i] = rng.UniformRange(0, 149);  // inner holds 0..99: a third miss
      groups[i] = rng.UniformRange(0, 1499);  // ~1100 distinct: rehashes
    }
    // Join inner: 300 rows over keys 0..99, so most keys chain 2-5 matches.
    std::vector<int64_t> inner(300);
    for (auto& k : inner) k = rng.UniformRange(0, 99);
    ints_ = Column::MakeInt64("ints", std::move(iv));
    floats_ = Column::MakeFloat64("floats", std::move(fv));
    fints_ = Column::MakeFloat64("fints", std::move(fint));
    strs_ = Column::MakeString("strs", sv);
    keys_ = Column::MakeInt64("keys", std::move(keys));
    groups_ = Column::MakeInt64("groups", std::move(groups));
    inner_ = Column::MakeInt64("inner", std::move(inner));
    fleets_ = {std::make_shared<MorselScheduler>(1),
               std::make_shared<MorselScheduler>(4)};
  }

  // Most rows survive, some do not: fetched values carry a non-trivial head.
  int Candidates(PlanBuilder* b) {
    return b->Select(ints_.get(), Predicate::RangeI64(-2, 36));
  }

  // Runs `plan` on the scalar interpreter and on the kernels at every morsel
  // size and fleet, comparing every intermediate byte for byte.
  void ExpectKernelsMatchScalar(const QueryPlan& plan,
                                const std::string& what) {
    ExecOptions so;
    so.use_kernels = false;
    Evaluator scalar(so);
    EvalResult ref;
    ASSERT_TRUE(scalar.Execute(plan, &ref).ok()) << what;
    for (uint64_t rows : kMorselRows) {
      for (const auto& fleet : fleets_) {
        ExecOptions o;
        o.morsel_rows = rows;
        Evaluator eval(o, fleet);
        EvalResult got;
        const std::string where = what + " rows=" + std::to_string(rows) +
                                  " workers=" +
                                  std::to_string(fleet->num_workers());
        ASSERT_TRUE(eval.Execute(plan, &got).ok()) << where;
        ASSERT_EQ(got.intermediates.size(), ref.intermediates.size()) << where;
        for (const auto& [id, inter] : ref.intermediates) {
          EXPECT_EQ(BytesDiff(inter, got.intermediates.at(id)), "")
              << where << " node " << id << " ("
              << plan.node(id).label << ")";
        }
        for (size_t i = 0; i < ref.metrics.size(); ++i) {
          EXPECT_EQ(got.metrics[i].tuples_in, ref.metrics[i].tuples_in)
              << where;
          EXPECT_EQ(got.metrics[i].tuples_out, ref.metrics[i].tuples_out)
              << where;
          uint64_t in = 0, out = 0;
          for (const auto& ms : got.metrics[i].morsels) {
            in += ms.tuples_in;
            out += ms.tuples_out;
          }
          if (!got.metrics[i].morsels.empty()) {
            EXPECT_EQ(in, got.metrics[i].tuples_in) << where;
            EXPECT_EQ(out, got.metrics[i].tuples_out) << where;
          }
        }
      }
    }
  }

  // The rows Candidates() selects, in row order.
  std::vector<oid> CandidateRows() const {
    std::vector<oid> rows;
    for (oid row = 0; row < kRows; ++row) {
      const int64_t v = ints_->i64()[row];
      if (v >= -2 && v <= 36) rows.push_back(row);
    }
    return rows;
  }

  // Independent oracle for the probe loop, which the scalar interpreter
  // shares with the kernels: for each outer row in input order (minus rows
  // outside `clip`), every inner row holding its key, last row first (hash
  // chain order).
  void ExpectProbePairs(const QueryPlan& plan, int join,
                        const std::vector<oid>& outer_rows,
                        const Column& key_col, const RowRange* clip) {
    Evaluator eval(ExecOptions{}, fleets_[1]);
    EvalResult er;
    ASSERT_TRUE(eval.Execute(plan, &er).ok());
    std::vector<oid> l, r;
    const std::vector<int64_t>& inner = inner_->i64();
    for (oid row : outer_rows) {
      if (clip != nullptr && !clip->Contains(row)) continue;
      const int64_t key = key_col.type() == DataType::kFloat64
                              ? static_cast<int64_t>(key_col.f64()[row])
                              : key_col.i64()[row];
      for (oid ir = inner.size(); ir-- > 0;) {
        if (inner[ir] == key) {
          l.push_back(row);
          r.push_back(ir);
        }
      }
    }
    const Intermediate& got = er.intermediates.at(join);
    EXPECT_FALSE(l.empty());
    EXPECT_EQ(got.rowids, l);
    EXPECT_EQ(got.rrowids, r);
  }

  ColumnPtr ints_, floats_, fints_, strs_, keys_, groups_, inner_;
  std::vector<std::shared_ptr<MorselScheduler>> fleets_;
};

// ---- maps -------------------------------------------------------------

TEST_F(KernelOpsDiffTest, ArithmeticMapsOverEveryOperandType) {
  const MapFn fns[] = {MapFn::kAdd, MapFn::kSub, MapFn::kRSub, MapFn::kMul,
                       MapFn::kDiv};
  const Column* cols[] = {floats_.get(), ints_.get(), strs_.get()};
  for (MapFn fn : fns) {
    const std::string name = "fn" + std::to_string(static_cast<int>(fn));
    for (const Column* a : cols) {
      // Const form; 0 makes kDiv's zero-divisor arm the whole output.
      for (double c : {2.5, 0.0}) {
        PlanBuilder b("map-const");
        const int s = Candidates(&b);
        const int m = b.MapConst(fn, b.FetchJoin(a, s), c);
        ExpectKernelsMatchScalar(
            b.Result(m), name + " " + a->name() + " c=" + std::to_string(c));
      }
      // Binary form over every second operand type.
      for (const Column* y : cols) {
        PlanBuilder b("map2");
        const int s = Candidates(&b);
        const int m = b.Map2(fn, b.FetchJoin(a, s), b.FetchJoin(y, s));
        ExpectKernelsMatchScalar(b.Result(m),
                                 name + " " + a->name() + "," + y->name());
      }
    }
  }
}

TEST_F(KernelOpsDiffTest, FlagMaps) {
  {
    PlanBuilder b("like-flag");
    const int s = Candidates(&b);
    ExpectKernelsMatchScalar(b.Result(b.LikeFlag(b.FetchJoin(strs_.get(), s),
                                                 "ap")),
                             "like");
  }
  {
    PlanBuilder b("not-like-flag");
    const int s = Candidates(&b);
    ExpectKernelsMatchScalar(
        b.Result(b.LikeFlag(b.FetchJoin(strs_.get(), s), "an", true)),
        "not like");
  }
  for (const Column* a : {ints_.get(), fints_.get(), strs_.get()}) {
    {
      PlanBuilder b("eq-flag");
      const int s = Candidates(&b);
      ExpectKernelsMatchScalar(b.Result(b.EqFlag(b.FetchJoin(a, s), 3)),
                               "eq " + a->name());
    }
    {
      // kRangeFlag over an int64 predicate.
      PlanBuilder b("range-flag-i64");
      const int s = Candidates(&b);
      ExpectKernelsMatchScalar(
          b.Result(b.RangeFlag(b.FetchJoin(a, s), 2, 17)),
          "range i64 " + a->name());
    }
    {
      // kRangeFlag over a float64 predicate.
      PlanBuilder b("range-flag-f64");
      const int s = Candidates(&b);
      const int f = b.RangeFlag(b.FetchJoin(a, s), 0, 0);
      QueryPlan plan = b.Result(f);
      plan.node(f).pred = Predicate::RangeF64(1.5, 20.25);
      ExpectKernelsMatchScalar(plan, "range f64 " + a->name());
    }
  }
  {
    // A binary-form flag map reads only its first operand.
    PlanBuilder b("eq-flag-2");
    const int s = Candidates(&b);
    const int f = b.Map2(MapFn::kEqFlag, b.FetchJoin(ints_.get(), s),
                         b.FetchJoin(floats_.get(), s));
    QueryPlan plan = b.Result(f);
    plan.node(f).pred = Predicate::EqI64(5);
    ExpectKernelsMatchScalar(plan, "eq binary");
  }
}

TEST_F(KernelOpsDiffTest, MapsAndGroupByShareTheirInputHead) {
  PlanBuilder b("shared-head");
  const int s = Candidates(&b);
  const int f = b.FetchJoin(floats_.get(), s);
  const int m1 = b.MapConst(MapFn::kMul, f, 3.0);
  const int m2 = b.MapConst(MapFn::kAdd, m1, 1.0);
  const int g = b.GroupBy(b.FetchJoin(ints_.get(), s));
  const int agg = b.AggGrouped(AggFn::kSum, g, m2);
  QueryPlan plan = b.Result(agg);
  for (bool kernels : {false, true}) {
    ExecOptions o;
    o.use_kernels = kernels;
    o.morsel_rows = 64;
    Evaluator eval(o, fleets_[1]);
    EvalResult er;
    ASSERT_TRUE(eval.Execute(plan, &er).ok());
    const SharedOids& head = er.intermediates.at(f).head;
    ASSERT_FALSE(head.empty());
    EXPECT_TRUE(er.intermediates.at(m1).head.SharesBufferWith(head));
    EXPECT_TRUE(er.intermediates.at(m2).head.SharesBufferWith(head));
    const SharedOids& ghead = er.intermediates.at(g).head;
    EXPECT_EQ(ghead, head);
    EXPECT_FALSE(ghead.SharesBufferWith(head));  // a different fetch's head
    EXPECT_TRUE(ghead.SharesBufferWith(
        er.intermediates.at(plan.node(g).inputs[0]).head));
  }
}

// ---- join probe -------------------------------------------------------

TEST_F(KernelOpsDiffTest, ProbeValuesWithHeadDuplicateKeysAndMisses) {
  for (const Column* k : {keys_.get(), fints_.get()}) {
    PlanBuilder b("probe-values");
    const int s = Candidates(&b);
    const int j = b.Join(b.FetchJoin(k, s), inner_.get());
    const int fl = b.FetchJoin(ints_.get(), j, FetchSide::kLeft);
    const int fr = b.FetchJoin(inner_.get(), j, FetchSide::kRight);
    const QueryPlan plan = b.Result(b.Map2(MapFn::kAdd, fl, fr));
    ExpectProbePairs(plan, j, CandidateRows(), *k, nullptr);
    ExpectKernelsMatchScalar(plan, "values " + k->name());
  }
}

TEST_F(KernelOpsDiffTest, ProbeSlicedValuesClipsOuterRows) {
  PlanBuilder b("probe-values-sliced");
  const int s = Candidates(&b);
  const int j = b.Join(b.FetchJoin(keys_.get(), s), inner_.get());
  QueryPlan plan = b.Result(j);
  plan.node(j).has_slice = true;
  plan.node(j).slice = RowRange{300, 1500};
  ExpectProbePairs(plan, j, CandidateRows(), *keys_, &plan.node(j).slice);
  ExpectKernelsMatchScalar(plan, "values sliced");
}

// Every values producer attaches a head, so a headless values input cannot
// be built from a plan; its probe loop reads outer rows as origin + position,
// the same reader the leaf join below uses.
TEST_F(KernelOpsDiffTest, ProbeLeafScan) {
  PlanBuilder b("probe-leaf");
  const int j = b.JoinLeaf(keys_.get(), inner_.get());
  const QueryPlan plan = b.Result(j);
  std::vector<oid> all(kRows);
  for (oid row = 0; row < kRows; ++row) all[row] = row;
  ExpectProbePairs(plan, j, all, *keys_, nullptr);
  ExpectKernelsMatchScalar(plan, "leaf");
}

TEST_F(KernelOpsDiffTest, ProbeRowIdsWholeAndSliced) {
  for (bool sliced : {false, true}) {
    PlanBuilder b("probe-rowids");
    const int s = Candidates(&b);
    const int j = b.Join(s, inner_.get());
    QueryPlan plan = b.Result(j);
    plan.node(j).column = keys_.get();
    if (sliced) {
      plan.node(j).has_slice = true;
      plan.node(j).slice = RowRange{250, 1250};
    }
    ExpectProbePairs(plan, j, CandidateRows(), *keys_,
                     sliced ? &plan.node(j).slice : nullptr);
    ExpectKernelsMatchScalar(plan, sliced ? "rowids sliced" : "rowids");
  }
}

// ---- group-by ---------------------------------------------------------

// ~1100 distinct keys: far past AggTable's initial 64 buckets, so the
// one-morsel (whole-input) ingest rehashes several times. Float keys group
// by their int64 truncation, and their group keys are int64.
TEST_F(KernelOpsDiffTest, GroupByManyDistinctKeysRehashes) {
  {
    PlanBuilder b("groupby-leaf");
    const int g = b.GroupByLeaf(groups_.get());
    ExpectKernelsMatchScalar(b.Result(b.AggGrouped(AggFn::kCount, g)), "leaf");
  }
  for (const Column* k : {groups_.get(), fints_.get(), strs_.get()}) {
    PlanBuilder b("groupby-values");
    const int s = Candidates(&b);
    const int g = b.GroupBy(b.FetchJoin(k, s));
    const int agg = b.AggGrouped(AggFn::kMax, g, b.FetchJoin(floats_.get(), s));
    ExpectKernelsMatchScalar(b.Result(agg), "values " + k->name());
  }
}

// The merge of grouped partials numbers its output slots in first-occurrence
// order of the partial keys and folds each partial's value and count.
TEST_F(KernelOpsDiffTest, AggrMergeKeepsFirstOccurrenceOrder) {
  PlanBuilder b("aggrmerge");
  int parts[3];
  const RowRange slices[3] = {{0, 700}, {700, 1300}, {1300, kRows}};
  for (int p = 0; p < 3; ++p) {
    const int g = b.GroupByLeaf(groups_.get());
    b.plan().node(g).has_slice = true;
    b.plan().node(g).slice = slices[p];
    parts[p] = b.AggGrouped(AggFn::kCount, g);
  }
  PlanNode u;
  u.kind = OpKind::kExchangeUnion;
  u.inputs = {parts[0], parts[1], parts[2]};
  const int un = b.plan().AddNode(std::move(u));
  PlanNode mg;
  mg.kind = OpKind::kAggrMerge;
  mg.agg_fn = AggFn::kCount;
  mg.inputs = {un};
  const int merge = b.plan().AddNode(std::move(mg));
  QueryPlan plan = b.Result(merge);

  for (bool kernels : {false, true}) {
    ExecOptions o;
    o.use_kernels = kernels;
    Evaluator eval(o, fleets_[1]);
    EvalResult er;
    ASSERT_TRUE(eval.Execute(plan, &er).ok());
    const Intermediate& packed = er.intermediates.at(un);
    std::vector<int64_t> keys;
    std::unordered_map<int64_t, size_t> slot;
    std::vector<double> sums;
    for (size_t i = 0; i < packed.agg_vals.size(); ++i) {
      const int64_t k = packed.group_keys.i64[i];
      auto [it, fresh] = slot.emplace(k, keys.size());
      if (fresh) {
        keys.push_back(k);
        sums.push_back(0);
      }
      sums[it->second] += packed.agg_vals[i];
    }
    const Intermediate& merged = er.intermediates.at(merge);
    EXPECT_EQ(merged.group_keys.i64, keys);
    EXPECT_EQ(merged.agg_vals, sums);
    int64_t total = 0;
    for (int64_t c : merged.agg_counts) total += c;
    EXPECT_EQ(total, static_cast<int64_t>(kRows));
  }
}

}  // namespace
}  // namespace apq

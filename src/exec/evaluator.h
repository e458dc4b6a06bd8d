// Plan interpretation: executes a QueryPlan on real data, producing exact
// results plus per-operator workload metrics for the cost model.
//
// Results are always exact regardless of how the plan was parallelized. Two
// timings exist for a run: the virtual-time simulator (src/sched/simulator.h)
// converts the metrics gathered here into the paper machine's time, and the
// evaluator's own wall clock is hardware truth. There is one execution path
// on one worker fleet (sched/morsel_scheduler.h): the DAG runner executes each
// wave of ready nodes (e.g. exchange clone subtrees) concurrently, and every
// operator whose input spans more than one morsel splits into morsel tasks.
//
// The hot path runs on the kernel tier: selects, fetch-joins and maps run
// through the batch kernels in exec/kernels.h (selection vectors, one typed
// tight loop per predicate or map function and operand type), join probes
// walk the hash chain inline in one typed loop per input shape, and group-by
// and aggregate merges ingest through the flat AggTable (exec/agg/). Each of
// these runs per morsel when its input splits. Selects, fetch-joins, maps and
// probes keep one span body each, which ForEachMorsel (the one morsel driver)
// runs per morsel or once over a one-morsel input. Maps and group-bys share
// their input's head row ids instead of copying them. The original
// row-at-a-time interpreter is retained behind ExecOptions::use_kernels =
// false as a reference implementation for correctness tests and the
// scalar-vs-vectorized microbenchmarks.
#ifndef APQ_EXEC_EVALUATOR_H_
#define APQ_EXEC_EVALUATOR_H_

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "exec/hash_index.h"
#include "exec/intermediate.h"
#include "exec/morsel_source.h"
#include "exec/simd/simd_ops.h"
#include "exec/sort/sort_runs.h"
#include "obs/metrics.h"
#include "obs/resource_tracker.h"
#include "obs/trace.h"
#include "plan/plan.h"
#include "sched/morsel_scheduler.h"
#include "util/status.h"

namespace apq {

/// \brief What one operator execution did, in machine-independent units.
/// The cost model converts this into virtual time.
struct OpMetrics {
  int node_id = -1;
  OpKind kind = OpKind::kResult;
  uint64_t tuples_in = 0;    // tuples scanned / probed / consumed
  uint64_t tuples_out = 0;   // tuples produced
  uint64_t bytes_in = 0;     // bytes read (sequential)
  uint64_t bytes_out = 0;    // bytes materialized
  uint64_t random_accesses = 0;       // gathers / hash probes
  uint64_t random_working_set = 0;    // bytes of the randomly accessed region
  uint64_t hash_build_rows = 0;       // rows inserted into a new hash index
  uint64_t sort_rows = 0;             // rows sorted (n log n term)
  uint64_t peak_bytes = 0;   // peak bytes charged while this operator ran
  uint64_t cpu_ns = 0;       // summed task execution time (node wall when
                             // the operator ran whole-column, no tasks)
  uint64_t queue_wait_ns = 0;  // summed scheduler queue-wait of its tasks
  /// Per-morsel breakdown in morsel (= input) order; empty when the operator
  /// ran whole-column. Morsel tuple counts sum exactly to tuples_in/out.
  std::vector<MorselMetrics> morsels;
};

/// \brief Result of interpreting a plan.
struct EvalResult {
  /// Intermediates of reachable nodes, indexed by node id.
  std::unordered_map<int, Intermediate> intermediates;
  /// Per-node workload metrics, in topological order of execution
  /// (deterministic: identical at every worker count).
  std::vector<OpMetrics> metrics;
  /// The intermediate feeding the result node.
  Intermediate result;
  /// Wall-clock nanoseconds the evaluator spent executing the plan.
  double wall_ns = 0;
};

/// \brief Execution backend configuration.
struct ExecOptions {
  /// Use the vectorized selection-vector kernels (exec/kernels.h), morsel
  /// tasks included. When false, the original scalar row-at-a-time
  /// interpreter runs instead: the differential oracle, never morselized.
  bool use_kernels = true;
  /// Rows per morsel (0 = kDefaultMorselRows). An operator whose input fits
  /// in one morsel runs whole-column on its node's thread; larger inputs
  /// split into morsels, run on the scheduler and concatenate in morsel
  /// order — bit-identical to the whole-column kernels. Grouped SUM/AVG fold
  /// at fixed kAggFoldRows blocks, so no result depends on this value. The
  /// APQ_FORCE_MORSELS=<rows> environment variable overrides it, and the
  /// adaptive loop may shrink it per node (SetAdaptiveMorselRows).
  uint64_t morsel_rows = kDefaultMorselRows;
  /// SIMD dispatch tier for the vectorized kernels: kAuto resolves to the
  /// best level the CPU supports (cpuid probe), lower levels pin the tier
  /// (for differential testing). The APQ_SIMD environment variable
  /// (scalar|avx2|avx512, validated like APQ_FORCE_MORSELS) overrides this.
  /// Only meaningful with use_kernels; outputs are bit-identical at every
  /// level. Levels above what the CPU/build supports clamp down.
  simd::SimdLevel simd_level = simd::SimdLevel::kAuto;
  /// Enable span tracing (obs/trace.h) for executions through this
  /// evaluator: operator spans, sampled morsel spans, steal events. Enabling
  /// is process-wide and sticky (the ring buffers are shared); a valid
  /// APQ_TRACE environment variable also enables it and adds an at-exit
  /// Chrome-trace export. Tracing never changes results — only timings are
  /// observed — and costs one branch per span site when off.
  bool trace = false;
};

/// Registers the apq_build_info metric (constant 1, labeled with the
/// version, the resolved SIMD dispatch tier, and the build type) once per
/// process, so scraped fleets can correlate perf deltas with binaries.
/// Called from set_options after SIMD resolution; later tier changes keep
/// the first registration (one build = one info series).
void RegisterBuildInfo(simd::SimdLevel level);

/// \brief Interprets plans operator-at-a-time (like MonetDB's MAL
/// interpreter). Hash indexes for join inners are cached across operators and
/// across repeated invocations of the same Evaluator, mirroring BAT hash
/// caching; the cache is thread-safe so parallel join clones share one build.
class Evaluator {
 public:
  Evaluator() = default;
  /// `sched` is the (possibly shared) worker fleet to run on; null =
  /// MorselScheduler::Shared().
  explicit Evaluator(ExecOptions options,
                     std::shared_ptr<MorselScheduler> sched = nullptr)
      : morsel_sched_(std::move(sched)) {
    set_options(options);
  }

  void set_options(ExecOptions options) {
    options_ = options;
    // Resolved once per options change, not per kernel call: env override >
    // requested level > cpuid probe. Scalar tier = all-null table = the
    // generic loops.
    simd_ops_ = &simd::Resolve(options_.simd_level);
    // Observability wiring (rare path: once per options change). APQ_TRACE /
    // APQ_METRICS are read here so benches and examples that never touch
    // Engine still export at exit; the gauge mirrors the dispatch tier the
    // kernels actually run with.
    obs::InitFromEnv();
    if (options_.trace) obs::SetTraceEnabled(true);
    obs::MetricsRegistry::Global()
        .GetGauge("apq_simd_dispatch_level")
        ->Set(static_cast<int64_t>(simd_ops_->level));
    RegisterBuildInfo(simd_ops_->level);
  }
  const ExecOptions& options() const { return options_; }
  void set_use_kernels(bool on) { options_.use_kernels = on; }

  /// Executes `plan`; on success fills `out`.
  Status Execute(const QueryPlan& plan, EvalResult* out);

  /// Drops cached hash indexes (e.g. between unrelated experiments). Must not
  /// race with an Execute that is building hashes.
  void ClearCaches() {
    std::lock_guard<std::mutex> lock(hash_mu_);
    for (const auto& [col, slot] : hash_cache_) {
      if (slot && slot->index) {
        obs::AddHashCacheBytes(
            -static_cast<int64_t>(slot->index->byte_size()));
      }
    }
    hash_cache_.clear();
  }

  /// The fleet this evaluator runs on: the scheduler given to the
  /// constructor, else the process-wide MorselScheduler::Shared(). Never
  /// null. Concurrent queries that share one scheduler multiplex one fleet.
  const std::shared_ptr<MorselScheduler>& morsel_scheduler() const {
    return morsel_sched_ ? morsel_sched_ : MorselScheduler::Shared();
  }

  /// Rows per morsel actually used: options().morsel_rows, unless
  /// APQ_FORCE_MORSELS carries a row count (e.g. =512).
  uint64_t EffectiveMorselRows() const;

  /// The validated APQ_FORCE_MORSELS value: 0 = unset/rejected, else the
  /// forced rows per morsel. Exposed so tests reason about the forced size
  /// with the evaluator's own parsing instead of re-implementing it.
  static uint64_t ForcedEnvMorselRows();

  /// The SIMD dispatch table this evaluator's kernels run with (after the
  /// APQ_SIMD override and cpuid clamping). Never null once options are set.
  const simd::SimdOps* simd_ops() const { return simd_ops_; }

  /// Rows per morsel for one specific plan node: the adaptive override when
  /// one was injected, otherwise EffectiveMorselRows().
  uint64_t MorselRowsForNode(int node_id) const;

  /// Injects per-node morsel-size overrides for subsequent Execute() calls
  /// (the adaptive executor's runtime response to observed morsel skew).
  /// Replaces any previous hints; must not be called concurrently with an
  /// Execute(). Node ids refer to the next plan to be executed — mutated
  /// clones get fresh ids and therefore no stale hints.
  void SetAdaptiveMorselRows(std::unordered_map<int, uint64_t> rows_by_node) {
    adaptive_rows_ = std::move(rows_by_node);
  }
  const std::unordered_map<int, uint64_t>& adaptive_morsel_rows() const {
    return adaptive_rows_;
  }

 private:
  /// Read view over per-node result slots during one execution. A node id is
  /// readable iff done[id] is set, which the DAG runner guarantees for every
  /// input before a node runs.
  struct ExecContext {
    const std::vector<Intermediate>* slots = nullptr;
    const std::vector<uint8_t>* done = nullptr;
  };

  /// Runs the plan DAG in waves: every node whose inputs are done runs
  /// next, one-node waves inline on the calling thread, wider waves as one
  /// ParallelFor (the caller taking part). Outputs and metrics land at their
  /// topological positions, and (*charged)[id] receives the bytes ExecNode
  /// charged for node id's output, which the caller returns after the run.
  /// On failure the wave's successful outputs are still published and
  /// charged, and the error of the failing node with the lowest topological
  /// position is returned.
  Status RunDag(const QueryPlan& plan, const std::vector<int>& order,
                std::vector<Intermediate>* slots, std::vector<uint8_t>* done,
                std::vector<OpMetrics>* metrics,
                std::vector<uint64_t>* charged);

  /// Runs one node under its operator span and accounting block. On success
  /// its output stays charged durable; `*charged` receives the amount: the
  /// output's ByteSize less a head shared with an input, which that input's
  /// charge already covers.
  Status ExecNode(const QueryPlan& plan, const PlanNode& node,
                  const ExecContext& ctx, Intermediate* result, OpMetrics* m,
                  uint64_t* charged);
  Status ExecNodeInner(const QueryPlan& plan, const PlanNode& node,
                       const ExecContext& ctx, Intermediate* result,
                       OpMetrics* m);

  Status ExecSelect(const PlanNode& node, const ExecContext& ctx,
                    Intermediate* result, OpMetrics* m);
  Status ExecFetchJoin(const PlanNode& node, const ExecContext& ctx,
                       Intermediate* result, OpMetrics* m);
  Status ExecJoin(const PlanNode& node, const ExecContext& ctx,
                  Intermediate* result, OpMetrics* m);
  Status ExecGroupBy(const PlanNode& node, const ExecContext& ctx,
                     Intermediate* result, OpMetrics* m);
  Status ExecAggregate(const PlanNode& node, const ExecContext& ctx,
                       Intermediate* result, OpMetrics* m);
  Status ExecAggrMerge(const PlanNode& node, const ExecContext& ctx,
                       Intermediate* result, OpMetrics* m);
  Status ExecUnion(const PlanNode& node, const ExecContext& ctx,
                   Intermediate* result, OpMetrics* m);
  Status ExecMap(const PlanNode& node, const ExecContext& ctx,
                 Intermediate* result, OpMetrics* m);
  Status ExecSort(const PlanNode& node, const ExecContext& ctx,
                  Intermediate* result, OpMetrics* m);

  /// Group-by ingest over keys[0..n) through AggTable (exec/agg/): fills
  /// result->group_ids / group_keys.i64 in the scalar first-occurrence
  /// order, per morsel on the scheduler when the input splits, in one table
  /// on this thread otherwise.
  void MorselGroupBy(const int64_t* keys, uint64_t n, Intermediate* result,
                     OpMetrics* m);

  /// Morsel-parallel grouped aggregation into the pre-initialized
  /// result->agg_vals / agg_counts (AVG left undivided, as sequentially).
  size_t MorselGroupedAgg(const int64_t* gids, uint64_t n,
                          const ValueVec* vals, AggFn fn, uint64_t ngroups,
                          Intermediate* result);

  /// Morsel-parallel permutation sort (exec/sort/): fills `perm` with the
  /// first min(limit, n) positions (limit = 0 sorts everything) of [0, n)
  /// in (key value, position) order — bit-identical to the scalar stable
  /// sort — and lands per-run / per-merge-chunk counts in `m->morsels`:
  /// run tasks carry tuples_in (summing to n = the operator's sort_rows;
  /// equal to its tuples_in except for slice-clipped rowid inputs, which
  /// drop out-of-slice candidates before sorting) and merge chunks carry
  /// tuples_out (summing to the operator's tuples_out). Returns the number
  /// of runs; 0 = caller runs SortPermSequential (nothing written).
  size_t MorselSortPerm(const SortKeys& keys, uint64_t n, bool descending,
                        uint64_t limit, std::vector<uint64_t>* perm,
                        OpMetrics* m);

  /// The one morsel driver of the evaluator: runs `span(morsel)` over every
  /// morsel of `src`, on the scheduler when there are two or more, else once
  /// inline (an empty or one-morsel input is the whole input), so an
  /// operator keeps one loop body for both. `span` returns its MorselOut.
  /// Per-morsel metrics (tuples_in = rows x `in_per_row`) land in m->morsels
  /// only when the input split; a sampled trace span named `trace_name`
  /// marks every kMorselSampleMask+1-th morsel. A span that produces a
  /// fragment builds it in locals and publishes it into its own slot once,
  /// so no two workers write neighbouring vector headers while they run.
  template <typename Span>
  void ForEachMorsel(const MorselSource& src, const char* trace_name,
                     uint64_t in_per_row, OpMetrics* m, Span&& span);

  /// A join's probe loop over input positions [begin, end), appending
  /// (outer, inner) matches to the two vectors.
  using ProbeSpan = std::function<void(uint64_t, uint64_t, std::vector<oid>*,
                                       std::vector<oid>*)>;

  /// Morsel-parallel hash-join probe: runs `probe_span` per morsel into
  /// ordered pair fragments and sets result->rowids/rrowids to their
  /// concatenation in morsel order — bit-identical to one sequential probe
  /// over [0, n). A one-morsel input's fragment is moved into the result.
  void MorselJoinProbe(uint64_t n, const ProbeSpan& probe_span,
                       Intermediate* result, OpMetrics* m);

  std::shared_ptr<HashIndex> GetOrBuildHash(const Column& column);

  ExecOptions options_;
  /// Active SIMD dispatch table (see set_options). The default matches the
  /// default ExecOptions: auto-resolved.
  const simd::SimdOps* simd_ops_ = &simd::Resolve(simd::SimdLevel::kAuto);
  std::shared_ptr<MorselScheduler> morsel_sched_;  // injected; null = Shared()
  /// Per-node morsel-size overrides for the next Execute (adaptive skew
  /// response); read-only during execution.
  std::unordered_map<int, uint64_t> adaptive_rows_;

  /// One cache entry per join-inner column. The per-entry once_flag is the
  /// build latch: concurrent first builds of *different* inners proceed in
  /// parallel (hash_mu_ only guards the map itself), while clones racing for
  /// the *same* inner still share a single build.
  struct HashSlot {
    std::once_flag built;
    std::shared_ptr<HashIndex> index;
  };

  std::mutex hash_mu_;  // guards hash_cache_ (the map) and hash_builds_
  std::unordered_map<const Column*, std::shared_ptr<HashSlot>> hash_cache_;
  /// Hash builds performed during the current Execute. Build cost is
  /// attributed after the run to the topologically-first join over the built
  /// column, so hash_build_rows in the metrics is identical at every worker
  /// count (concurrent clones may race to build first).
  std::vector<std::pair<const Column*, uint64_t>> hash_builds_;
};

}  // namespace apq

#endif  // APQ_EXEC_EVALUATOR_H_

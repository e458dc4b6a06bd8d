// Morsel-parallel aggregation: thread-local pre-aggregation with a
// partitioned merge.
//
// Group-by ingest and grouped aggregation were the last heavy operators
// still running whole-column (select and fetch-join morselized in an earlier
// step): one sequential hash-insert loop over the full input. This pipeline
// splits the input into morsels on the work-stealing scheduler
// (sched/morsel_scheduler.h):
//
//  * ParallelGroupBy — each scheduler worker ingests its morsels into a
//    thread-local AggTable (local group ids, per-key minimum input
//    position), the tables are merged by radix partition of the key hash
//    (each partition merged by one worker), and group ids are renumbered by
//    ranking keys on their earliest input position — which reproduces the
//    scalar interpreter's first-occurrence numbering *bit-identically*,
//    regardless of morsel size, worker count, or steal order.
//
//  * ParallelGroupedAgg — each fixed-size input *block* (kAggFoldRows rows,
//    whatever the morsel size) folds its rows into a private partial keyed
//    by (already-global) group id; partials are merged over contiguous
//    group-id ranges, one range per worker, folding blocks in index order so
//    the result is deterministic across worker counts, morsel sizes and
//    runs. Counts and MIN/MAX/COUNT values are bit-identical to the scalar
//    loop; SUM/AVG reassociate across block boundaries (partial sums added
//    in block order), which is deterministic but may differ from the
//    sequential fold in the last bits.
#ifndef APQ_EXEC_AGG_PARALLEL_AGG_H_
#define APQ_EXEC_AGG_PARALLEL_AGG_H_

#include <cstdint>
#include <vector>

#include "exec/agg/agg_table.h"
#include "exec/morsel_source.h"
#include "exec/op_kind.h"
#include "exec/simd/simd_ops.h"
#include "sched/morsel_scheduler.h"

namespace apq {

/// Grouped-aggregation partials fold at multiples of this many input rows.
/// It is a constant, not the morsel size: the service scales morsel_rows
/// with its admission grant and APQ_FORCE_MORSELS overrides it, and neither
/// may change a SUM/AVG result.
constexpr uint64_t kAggFoldRows = kDefaultMorselRows;

/// \brief How the aggregation pipeline splits and schedules its input.
struct ParallelAggOptions {
  uint64_t morsel_rows = kDefaultMorselRows;
  MorselScheduler* scheduler = nullptr;  ///< required; callers share fleets
  /// SIMD dispatch table for the dense-range ingest reductions (null ops or
  /// null entries fold row-at-a-time). Only folds whose result provably
  /// equals the per-row fold run vectorized, so outputs stay bit-identical
  /// across tiers.
  const simd::SimdOps* simd = nullptr;
};

/// \brief Morsel-parallel group-by over `keys[0..n)`.
///
/// Appends n group ids to `out_gids` and the distinct keys (indexed by group
/// id) to `out_keys`, numbering groups in global first-occurrence order —
/// bit-identical to the sequential insert loop. Appends one MorselMetrics
/// per ingest morsel to `morsels` (tuples_in = tuples_out = morsel rows).
///
/// Returns the number of morsels run. An input that fits in one morsel (or
/// any input when no scheduler was given) is ingested on the calling thread
/// into a single table with the same numbering, appends no morsel metrics
/// and returns 0.
size_t ParallelGroupBy(const int64_t* keys, uint64_t n,
                       const ParallelAggOptions& opts,
                       std::vector<int64_t>* out_gids,
                       std::vector<int64_t>* out_keys,
                       std::vector<MorselMetrics>* morsels);

/// \brief Block-parallel grouped aggregation.
///
/// Folds each block of kAggFoldRows rows into its own partial and the
/// partials in block order; tasks are runs of whole blocks of about
/// `opts.morsel_rows` rows, so the morsel size only sets the parallelism.
/// `gids[0..n)` are dense group ids in [0, ngroups); row i's value is
/// vals_f64[i] / vals_i64[i] (whichever is non-null) or 1.0 when both are
/// null (COUNT). Folds into out_vals/out_counts[0..ngroups), which the
/// caller must have initialized to the scalar init (kMin: 1e300, kMax:
/// -1e300, else 0; counts 0). AVG is left as (sum, count) — the caller
/// divides, as on the sequential path.
///
/// Returns the number of blocks folded; 0 when the input fits in one block
/// (the caller's sequential loop then computes the same fold) or no
/// scheduler was given — nothing has been written.
size_t ParallelGroupedAgg(const int64_t* gids, uint64_t n,
                          const double* vals_f64, const int64_t* vals_i64,
                          AggFn fn, uint64_t ngroups,
                          const ParallelAggOptions& opts, double* out_vals,
                          int64_t* out_counts);

}  // namespace apq

#endif  // APQ_EXEC_AGG_PARALLEL_AGG_H_

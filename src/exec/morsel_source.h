// Splits an operator's columnar input into fixed-size morsels.
//
// A morsel is a contiguous chunk of the input — a row-id subrange of a dense
// scan, or an index span of a candidate list / fetch-join id list. Morsels
// are indexed 0..num_morsels() in input order. The evaluator's one morsel
// driver (Evaluator::ForEachMorsel) runs an operator's span body over each
// morsel, through the span forms of the kernels (exec/kernels.h): into a
// per-morsel fragment that is concatenated by morsel index, or into the
// morsel's own slice of a pre-sized output. Either way the result equals
// whole-column execution bit for bit, whichever scheduler worker ran which
// morsel in what order. Each span reports a MorselOut, from which the driver
// fills the morsel's MorselMetrics.
#ifndef APQ_EXEC_MORSEL_SOURCE_H_
#define APQ_EXEC_MORSEL_SOURCE_H_

#include <cstdint>

#include "storage/types.h"

namespace apq {

/// Default morsel granularity: ~64K rows (a few hundred KB of column data,
/// L2-resident; coarse enough that scheduling cost is noise).
constexpr uint64_t kDefaultMorselRows = 64 * 1024;

/// \brief One morsel's share of an operator execution (intra-operator
/// parallelism). Tuple counts are deterministic — they depend only on the
/// morsel partitioning, not on which worker ran the morsel — while wall_ns
/// and worker are hardware truth and vary run to run.
struct MorselMetrics {
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  double wall_ns = 0;
  int worker = -1;  ///< executing scheduler worker; -1 = caller thread
                    ///< (MorselScheduler::kCallerWorker)
  /// Base-table row interval [domain_begin, domain_end) of the operator's
  /// primary column this morsel covered: the morsel's row subrange for dense
  /// scans, the first..last candidate row id for candidate/fetch-join id
  /// lists. domain_begin == domain_end means the domain is unknown (group-by
  /// ingest, sort runs, probe positions). This is what lets the skew-aware
  /// mutator translate a per-morsel tuple histogram back into range split
  /// points (paper Fig 12 dynamic partitioning).
  uint64_t domain_begin = 0;
  uint64_t domain_end = 0;
};

/// \brief One morsel: the half-open interval [begin, end) of the input.
/// For dense scans these are base-table row ids; for candidate lists they
/// are positions into the candidate vector.
struct Morsel {
  size_t index = 0;
  uint64_t begin = 0;
  uint64_t end = 0;

  uint64_t size() const { return end - begin; }
};

/// \brief What one morsel's span produced: its output tuples and, when
/// known, the base-row domain it covered (MorselMetrics::domain_begin/end;
/// equal bounds = unknown).
struct MorselOut {
  uint64_t tuples = 0;
  uint64_t domain_begin = 0;
  uint64_t domain_end = 0;
};

/// \brief Enumerates the morsels covering [begin, end).
class MorselSource {
 public:
  MorselSource(uint64_t begin, uint64_t end, uint64_t morsel_rows)
      : begin_(begin),
        end_(end < begin ? begin : end),
        rows_(morsel_rows == 0 ? kDefaultMorselRows : morsel_rows) {}

  /// Morsels over a dense row range.
  MorselSource(RowRange range, uint64_t morsel_rows)
      : MorselSource(range.begin, range.end, morsel_rows) {}

  uint64_t total() const { return end_ - begin_; }

  size_t num_morsels() const {
    return static_cast<size_t>((total() + rows_ - 1) / rows_);
  }

  Morsel morsel(size_t i) const {
    Morsel m;
    m.index = i;
    m.begin = begin_ + i * rows_;
    m.end = m.begin + rows_ < end_ ? m.begin + rows_ : end_;
    return m;
  }

 private:
  uint64_t begin_;
  uint64_t end_;
  uint64_t rows_;
};

}  // namespace apq

#endif  // APQ_EXEC_MORSEL_SOURCE_H_

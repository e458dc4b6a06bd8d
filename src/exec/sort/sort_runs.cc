#include "exec/sort/sort_runs.h"

#include <algorithm>
#include <numeric>

#include "obs/resource_tracker.h"
#include "util/hash_clock.h"

namespace apq {

namespace {

// Fills `run` with the positions [begin, end) in (key value, position)
// order, keeping only the first `limit` of them when 0 < limit < end - begin.
void SortPositions(const SortKeyLess& less, uint64_t begin, uint64_t end,
                   uint64_t limit, std::vector<uint64_t>* run) {
  run->resize(end - begin);
  std::iota(run->begin(), run->end(), begin);
  if (limit > 0 && limit < run->size()) {
    // Heap-select the limit smallest under the total order: O(n log limit)
    // instead of sorting all n rows. The position tie-break makes the result
    // identical to a full stable sort's first `limit` rows even though
    // partial_sort itself is unstable.
    std::partial_sort(run->begin(), run->begin() + static_cast<int64_t>(limit),
                      run->end(), less);
    run->resize(limit);
  } else {
    // (value, position) is a total order, so an unstable sort over it equals
    // std::stable_sort over values — without stable_sort's O(n) scratch.
    std::sort(run->begin(), run->end(), less);
  }
}

}  // namespace

void SortPermSequential(const SortKeys& keys, uint64_t n, bool descending,
                        uint64_t limit, std::vector<uint64_t>* perm) {
  SortPositions(SortKeyLess{keys, descending}, 0, n, limit, perm);
}

size_t BuildSortRuns(const SortKeys& keys, uint64_t n,
                     const ParallelSortOptions& opts, bool descending,
                     std::vector<std::vector<uint64_t>>* runs,
                     std::vector<MorselMetrics>* morsels) {
  MorselSource src(0, n, opts.morsel_rows);
  const size_t nm = src.num_morsels();
  if (nm < 2 || opts.scheduler == nullptr) return 0;

  const size_t base = runs->size();
  runs->resize(base + nm);
  std::vector<MorselMetrics> mm(nm);
  opts.scheduler->ParallelFor(nm, [&](size_t i, int worker) {
    const Morsel ms = src.morsel(i);
    const double t0 = NowNs();
    std::vector<uint64_t>& run = (*runs)[base + i];
    SortPositions(SortKeyLess{keys, descending}, ms.begin, ms.end, opts.limit,
                  &run);
    // Bounded top-N keeps runs x limit rows live; a full run is already
    // exactly sized, so this only frees a clipped run's tail.
    run.shrink_to_fit();
    // Durable: the run stays live until the merge consumes it; the caller
    // (MorselSortPerm) adopts and releases the sum of all run charges.
    obs::ChargeBytes(run.size() * sizeof(uint64_t));
    mm[i] = MorselMetrics{ms.size(), 0, NowNs() - t0, worker};
  });

  morsels->insert(morsels->end(), mm.begin(), mm.end());
  return nm;
}

}  // namespace apq

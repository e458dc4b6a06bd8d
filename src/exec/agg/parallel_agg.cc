#include "exec/agg/parallel_agg.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "obs/resource_tracker.h"
#include "util/hash_clock.h"

namespace apq {

size_t ParallelGroupBy(const int64_t* keys, uint64_t n,
                       const ParallelAggOptions& opts,
                       std::vector<int64_t>* out_gids,
                       std::vector<int64_t>* out_keys,
                       std::vector<MorselMetrics>* morsels) {
  MorselSource src(0, n, opts.morsel_rows);
  const size_t nm = src.num_morsels();
  const size_t base = out_gids->size();
  out_gids->resize(base + n);
  int64_t* gids = out_gids->data() + base;

  if (nm < 2 || opts.scheduler == nullptr) {
    // One morsel: one table, whose insertion-ordered slots already are the
    // first-occurrence group ids — no merge, no renumbering.
    AggTable tab;
    for (uint64_t pos = 0; pos < n; ++pos) {
      gids[pos] = tab.FindOrInsert(keys[pos], pos);
    }
    obs::ChargeTransient(tab.byte_size());
    out_keys->reserve(out_keys->size() + tab.num_groups());
    for (uint32_t s = 0; s < tab.num_groups(); ++s) {
      out_keys->push_back(tab.key(s));
    }
    return 0;
  }
  MorselScheduler& sched = *opts.scheduler;

  // Phase 1 — thread-local ingest. Table index 0 belongs to the submitting
  // thread (kCallerWorker), 1..W to the scheduler workers; a worker runs one
  // task at a time, so its table needs no synchronization. Rows get their
  // *local* group id for now; table_of remembers which table owns each
  // morsel's ids for the relabel pass.
  const size_t ntables = static_cast<size_t>(sched.num_workers()) + 1;
  std::vector<AggTable> tables(ntables);
  std::vector<int> table_of(nm, 0);
  std::vector<MorselMetrics> mm(nm);
  sched.ParallelFor(nm, [&](size_t i, int worker) {
    const Morsel ms = src.morsel(i);
    const double t0 = NowNs();
    const int t = worker + 1;  // kCallerWorker = -1 -> slot 0
    AggTable& tab = tables[t];
    for (uint64_t pos = ms.begin; pos < ms.end; ++pos) {
      gids[pos] = tab.FindOrInsert(keys[pos], pos);
    }
    table_of[i] = t;
    mm[i] = MorselMetrics{ms.size(), ms.size(), NowNs() - t0, worker};
  });

  // The thread-local tables are this operator's big working set; they stay
  // live through the merge/relabel phases, then the guard releases them.
  obs::ScopedMemCharge table_charge;
  for (const AggTable& tab : tables) table_charge.Add(tab.byte_size());

  // Phase 2 — partitioned merge: each radix partition of the key hash is
  // merged by one worker, computing per key the minimum first-occurrence
  // position across all thread-local tables (schedule-invariant even though
  // each table's content depends on which morsels its worker ran). Tables
  // bucket their groups by partition first, so total merge work is one pass
  // over the groups rather than one pass per partition.
  const size_t nparts = NextPow2(ntables);
  std::vector<std::vector<std::vector<uint32_t>>> tbuckets(ntables);
  sched.ParallelFor(ntables, [&](size_t t, int) {
    const AggTable& tab = tables[t];
    tbuckets[t].resize(nparts);
    for (uint32_t s = 0; s < tab.num_groups(); ++s) {
      tbuckets[t][AggTable::Mix(tab.key(s)) & (nparts - 1)].push_back(s);
    }
  });
  std::vector<AggTable> parts(nparts);
  sched.ParallelFor(nparts, [&](size_t p, int) {
    AggTable& pt = parts[p];
    for (size_t t = 0; t < ntables; ++t) {
      const AggTable& tab = tables[t];
      for (uint32_t s : tbuckets[t][p]) {
        pt.FindOrInsert(tab.key(s), tab.first_pos(s));
      }
    }
  });

  // Phase 3 — global renumbering: rank keys by earliest occurrence. Input
  // positions are unique, so the order (and thus every group id) is total
  // and identical to the scalar path's insertion order.
  std::vector<std::pair<uint64_t, int64_t>> order;  // (first_pos, key)
  {
    size_t total = 0;
    for (const AggTable& pt : parts) total += pt.num_groups();
    order.reserve(total);
  }
  for (const AggTable& pt : parts) {
    const uint64_t g = pt.num_groups();
    for (uint32_t s = 0; s < g; ++s) {
      order.emplace_back(pt.first_pos(s), pt.key(s));
    }
  }
  std::sort(order.begin(), order.end());
  AggTable global(order.size());
  out_keys->reserve(out_keys->size() + order.size());
  for (const auto& [pos, key] : order) {
    global.FindOrInsert(key, pos);  // slot ids follow insertion = rank order
    out_keys->push_back(key);
  }

  // Phase 4 — relabel local ids to global ids: one lookup per *group* to
  // build each table's translation, then one array load per row.
  std::vector<std::vector<int64_t>> l2g(ntables);
  sched.ParallelFor(ntables, [&](size_t t, int) {
    const AggTable& tab = tables[t];
    l2g[t].resize(tab.num_groups());
    for (uint32_t s = 0; s < tab.num_groups(); ++s) {
      l2g[t][s] = global.Find(tab.key(s));
    }
  });
  sched.ParallelFor(nm, [&](size_t i, int) {
    const Morsel ms = src.morsel(i);
    const std::vector<int64_t>& map = l2g[table_of[i]];
    for (uint64_t pos = ms.begin; pos < ms.end; ++pos) {
      gids[pos] = map[gids[pos]];
    }
  });

  morsels->insert(morsels->end(), mm.begin(), mm.end());
  return nm;
}

namespace {

// ---- dense-range flat ingest ------------------------------------------------
// For small group counts the per-block hash table is overkill: a flat array
// indexed by gid ingests with one load/store per row (no hashing, no probe
// chain), and equal-gid runs fold through the SIMD ingest reductions. Only
// folds whose result provably equals the per-row fold are vectorized, so the
// output is bit-identical to the hash path (and the scalar loop) at every
// dispatch tier.

/// Minimum equal-gid run length worth a SIMD reduction call.
constexpr uint64_t kSimdRunRows = 16;

/// Flat per-block partial: vals/counts indexed by gid. Absent groups keep
/// the fold identity (kMin: 1e300, kMax: -1e300, else 0; count 0), so the
/// merge can fold every slot unconditionally as an exact no-op.
struct FlatPartial {
  std::vector<double> vals;
  std::vector<int64_t> counts;
};

void IngestFlat(const int64_t* gids, const double* vf, const int64_t* vi,
                AggFn fn, uint64_t b, uint64_t e, const simd::SimdOps* simd,
                FlatPartial* out) {
  double* vals = out->vals.data();
  int64_t* counts = out->counts.data();
  // Block-level SUM exactness: when rows * max|v| <= 2^53 every partial sum
  // of every group's fold (any association) stays on integers doubles
  // represent exactly, so adding an equal-gid run as one integer sum is
  // bit-identical to the row loop. Checked once per block.
  bool exact_sum = false;
  if (vi != nullptr && (fn == AggFn::kSum || fn == AggFn::kAvg) &&
      simd != nullptr && simd->sum_i64_exact != nullptr &&
      simd->minmax_i64 != nullptr && e > b) {
    int64_t mn, mx;
    simd->minmax_i64(vi + b, e - b, &mn, &mx);
    const uint64_t am = mn == INT64_MIN
                            ? (1ull << 63)
                            : static_cast<uint64_t>(mn < 0 ? -mn : mn);
    const uint64_t bm = static_cast<uint64_t>(mx < 0 ? -mx : mx);
    const uint64_t maxabs = am > bm ? am : bm;
    exact_sum = maxabs <= (1ull << 53) / (e - b);
  }
  uint64_t pos = b;
  while (pos < e) {
    const int64_t g = gids[pos];
    uint64_t r = pos + 1;
    while (r < e && gids[r] == g) ++r;
    const uint64_t len = r - pos;
    bool folded = false;
    if (len >= kSimdRunRows) {
      switch (fn) {
        case AggFn::kCount:
          // The repeated +1.0 fold stays exact while the count is <= 2^53;
          // vals[g] is bounded by the block row count, far below that.
          vals[g] += static_cast<double>(len);
          folded = true;
          break;
        case AggFn::kMin:
        case AggFn::kMax:
          // Lattice folds; the int64->double cast is monotonic, so min/max
          // commute with it (see exec/simd/simd_ops.h).
          if (vi != nullptr && simd != nullptr &&
              simd->minmax_i64 != nullptr) {
            int64_t mn, mx;
            simd->minmax_i64(vi + pos, len, &mn, &mx);
            const double x = static_cast<double>(fn == AggFn::kMin ? mn : mx);
            vals[g] = fn == AggFn::kMin ? std::min(vals[g], x)
                                        : std::max(vals[g], x);
            folded = true;
          } else if (vf != nullptr && simd != nullptr &&
                     simd->minmax_f64 != nullptr) {
            double mn, mx;
            simd->minmax_f64(vf + pos, len, &mn, &mx);
            vals[g] = fn == AggFn::kMin ? std::min(vals[g], mn)
                                        : std::max(vals[g], mx);
            folded = true;
          }
          break;
        case AggFn::kSum:
        case AggFn::kAvg:
          if (exact_sum) {
            double s;
            if (simd->sum_i64_exact(vi + pos, len, &s)) {
              vals[g] += s;
              folded = true;
            }
          }
          break;
        case AggFn::kNone:
          break;
      }
    }
    if (folded) {
      counts[g] += static_cast<int64_t>(len);
    } else {
      for (uint64_t p = pos; p < r; ++p) {
        const double v = vf != nullptr ? vf[p]
                         : vi != nullptr ? static_cast<double>(vi[p])
                                         : 1.0;
        switch (fn) {
          case AggFn::kSum:
          case AggFn::kAvg: vals[g] += v; break;
          case AggFn::kCount: vals[g] += 1.0; break;
          case AggFn::kMin: vals[g] = std::min(vals[g], v); break;
          case AggFn::kMax: vals[g] = std::max(vals[g], v); break;
          case AggFn::kNone: break;
        }
        counts[g] += 1;
      }
    }
    pos = r;
  }
}

/// Memory budget for the flat path: per-block arrays are nb * ngroups
/// cells of 16 bytes. Past these bounds the hash path is the better deal.
constexpr uint64_t kFlatMaxGroups = 4096;
constexpr uint64_t kFlatMaxCells = 1ull << 22;

}  // namespace

size_t ParallelGroupedAgg(const int64_t* gids, uint64_t n,
                          const double* vals_f64, const int64_t* vals_i64,
                          AggFn fn, uint64_t ngroups,
                          const ParallelAggOptions& opts, double* out_vals,
                          int64_t* out_counts) {
  MorselSource src(0, n, kAggFoldRows);
  const size_t nb = src.num_morsels();
  if (nb < 2 || opts.scheduler == nullptr || ngroups == 0) return 0;
  MorselScheduler& sched = *opts.scheduler;
  // Phase-1 tasks: runs of whole blocks, about one morsel each.
  const size_t per_task =
      std::max<uint64_t>(1, opts.morsel_rows / kAggFoldRows);
  const size_t ntasks = (nb + per_task - 1) / per_task;
  auto for_each_block = [&](const std::function<void(size_t)>& fold) {
    sched.ParallelFor(ntasks, [&](size_t t, int) {
      const size_t end = std::min(nb, (t + 1) * per_task);
      for (size_t i = t * per_task; i < end; ++i) fold(i);
    });
  };

  if (ngroups <= kFlatMaxGroups &&
      static_cast<uint64_t>(nb) * ngroups <= kFlatMaxCells) {
    // Dense-range flat path. Same structure as the hash path below — phase 1
    // per-block partials, phase 2 contiguous-gid-range merge folding blocks
    // in index order — with arrays instead of hash tables.
    const double init = fn == AggFn::kMin ? 1e300
                        : fn == AggFn::kMax ? -1e300
                                            : 0.0;
    std::vector<FlatPartial> partials(nb);
    for_each_block([&](size_t i) {
      partials[i].vals.assign(ngroups, init);
      partials[i].counts.assign(ngroups, 0);
      const Morsel ms = src.morsel(i);
      IngestFlat(gids, vals_f64, vals_i64, fn, ms.begin, ms.end, opts.simd,
                 &partials[i]);
    });

    // nb * ngroups cells of 16 bytes, live until the merge below finishes.
    obs::ScopedMemCharge partials_charge(
        static_cast<uint64_t>(nb) * ngroups *
        (sizeof(double) + sizeof(int64_t)));

    size_t nparts = static_cast<size_t>(sched.num_workers()) + 1;
    if (nparts > ngroups) nparts = ngroups;
    sched.ParallelFor(nparts, [&](size_t p, int) {
      // Partition p owns gids with gid * nparts / ngroups == p — the range
      // [ceil(p*ngroups/nparts), ceil((p+1)*ngroups/nparts)). Groups absent
      // from a block are skipped (count 0), so each output slot sees
      // exactly the folds the hash merge performs, in block index order.
      const uint64_t lo = (p * ngroups + nparts - 1) / nparts;
      const uint64_t hi = ((p + 1) * ngroups + nparts - 1) / nparts;
      for (uint64_t g = lo; g < hi; ++g) {
        double v = out_vals[g];
        int64_t c = out_counts[g];
        for (size_t i = 0; i < nb; ++i) {
          if (partials[i].counts[g] == 0) continue;
          const double pv = partials[i].vals[g];
          switch (fn) {
            case AggFn::kSum:
            case AggFn::kAvg:
            case AggFn::kCount: v += pv; break;
            case AggFn::kMin: v = std::min(v, pv); break;
            case AggFn::kMax: v = std::max(v, pv); break;
            case AggFn::kNone: break;
          }
          c += partials[i].counts[g];
        }
        out_vals[g] = v;
        out_counts[g] = c;
      }
    });
    return nb;
  }

  // Phase 1 — per-block partials. Tables are per *block*, not per worker:
  // the merge folds them in block index order, so the result is independent
  // of which worker ran what (per-worker partials would reassociate
  // differently every run). Each block buckets its groups by output
  // partition as it finishes, so the merge scans every group exactly once.
  size_t nparts = static_cast<size_t>(sched.num_workers()) + 1;
  if (nparts > ngroups) nparts = ngroups;
  std::vector<AggTable> partials(nb);
  std::vector<std::vector<std::vector<uint32_t>>> pbuckets(nb);
  for_each_block([&](size_t i) {
    AggTable& tab = partials[i];
    const Morsel ms = src.morsel(i);
    for (uint64_t pos = ms.begin; pos < ms.end; ++pos) {
      const double v = vals_f64 != nullptr ? vals_f64[pos]
                       : vals_i64 != nullptr
                           ? static_cast<double>(vals_i64[pos])
                           : 1.0;
      tab.Update(fn, gids[pos], v, pos);
    }
    pbuckets[i].resize(nparts);
    for (uint32_t s = 0; s < tab.num_groups(); ++s) {
      const uint64_t gid = static_cast<uint64_t>(tab.key(s));
      pbuckets[i][gid * nparts / ngroups].push_back(s);
    }
  });

  // Per-block hash partials, live until the merge below folds them.
  obs::ScopedMemCharge partials_charge;
  for (const AggTable& tab : partials) partials_charge.Add(tab.byte_size());

  // Phase 2 — merge: partition p owns the group ids with
  // gid * nparts / ngroups == p (a contiguous range), so each output slot is
  // folded by exactly one worker and the folds race with nothing.
  sched.ParallelFor(nparts, [&](size_t p, int) {
    for (size_t i = 0; i < nb; ++i) {
      const AggTable& tab = partials[i];
      for (uint32_t s : pbuckets[i][p]) {
        const int64_t gid = tab.key(s);
        switch (fn) {
          case AggFn::kSum:
          case AggFn::kAvg:
          case AggFn::kCount: out_vals[gid] += tab.agg_val(s); break;
          case AggFn::kMin:
            out_vals[gid] = std::min(out_vals[gid], tab.agg_val(s));
            break;
          case AggFn::kMax:
            out_vals[gid] = std::max(out_vals[gid], tab.agg_val(s));
            break;
          case AggFn::kNone: break;
        }
        out_counts[gid] += tab.agg_count(s);
      }
    }
  });
  return nb;
}

}  // namespace apq

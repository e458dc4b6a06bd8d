// Hash index over a column's int64 values, used by the hash-join build side.
//
// Like MonetDB's BAT hashes, indexes are built lazily and cached per column in
// the evaluation context, so parallel join clones probing the same inner share
// one build.
#ifndef APQ_EXEC_HASH_INDEX_H_
#define APQ_EXEC_HASH_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/column.h"
#include "storage/types.h"
#include "util/hash_clock.h"

namespace apq {

/// \brief Open-addressing hash map from int64 key to the first matching row,
/// with a chain for duplicates.
class HashIndex {
 public:
  /// Builds an index over column values in [range.begin, range.end).
  static std::shared_ptr<HashIndex> Build(const Column& column, RowRange range);

  /// Calls `f(row)` for every row whose key equals `key`, in chain order.
  /// Header-level so the join's probe loop inlines the chain walk instead of
  /// making one out-of-line call per probed row.
  template <typename F>
  void ForEachMatch(int64_t key, F&& f) const {
    const int64_t* vals = column_->i64().data();
    for (uint32_t cur = buckets_[Mix(key) & mask_]; cur != 0;
         cur = next_[cur - 1]) {
      const oid row = range_.begin + (cur - 1);
      if (vals[row] == key) f(row);
    }
  }

  /// Appends all rows whose key equals `key` to `out`, in chain order.
  void Probe(int64_t key, std::vector<oid>* out) const {
    ForEachMatch(key, [out](oid row) { out->push_back(row); });
  }

  /// First row matching `key`, or kInvalidOid.
  oid ProbeFirst(int64_t key) const;

  uint64_t num_keys() const { return num_entries_; }
  uint64_t byte_size() const {
    return buckets_.size() * sizeof(uint64_t) + next_.size() * sizeof(uint32_t);
  }

 private:
  static uint64_t Mix(int64_t key) { return MixHash64(key); }

  // buckets_ maps hash slot -> 1 + local row offset (0 = empty).
  std::vector<uint32_t> buckets_;
  std::vector<uint32_t> next_;  // chain: local row offset -> 1 + next offset
  const Column* column_ = nullptr;
  RowRange range_;
  uint64_t mask_ = 0;
  uint64_t num_entries_ = 0;
};

}  // namespace apq

#endif  // APQ_EXEC_HASH_INDEX_H_

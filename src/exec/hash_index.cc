#include "exec/hash_index.h"

namespace apq {

std::shared_ptr<HashIndex> HashIndex::Build(const Column& column,
                                            RowRange range) {
  auto idx = std::make_shared<HashIndex>();
  idx->column_ = &column;
  idx->range_ = range;
  uint64_t n = range.size();
  uint64_t cap = 16;
  while (cap < n * 2) cap <<= 1;
  idx->buckets_.assign(cap, 0);
  idx->next_.assign(n, 0);
  idx->mask_ = cap - 1;
  const auto& vals = column.i64();
  for (uint64_t off = 0; off < n; ++off) {
    int64_t key = vals[range.begin + off];
    uint64_t slot = Mix(key) & idx->mask_;
    idx->next_[off] = idx->buckets_[slot];
    idx->buckets_[slot] = static_cast<uint32_t>(off + 1);
  }
  idx->num_entries_ = n;
  return idx;
}

oid HashIndex::ProbeFirst(int64_t key) const {
  const auto& vals = column_->i64();
  uint64_t slot = Mix(key) & mask_;
  for (uint32_t cur = buckets_[slot]; cur != 0; cur = next_[cur - 1]) {
    oid row = range_.begin + (cur - 1);
    if (vals[row] == key) return row;
  }
  return kInvalidOid;
}

}  // namespace apq

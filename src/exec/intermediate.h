// Intermediate results flowing between operators.
//
// Every intermediate carries the base row range it was derived from (its
// *origin*), which is what lets the engine verify dynamic-partition boundary
// alignment during tuple reconstruction (paper §2.3, Figs 9/10).
#ifndef APQ_EXEC_INTERMEDIATE_H_
#define APQ_EXEC_INTERMEDIATE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "storage/column.h"
#include "storage/types.h"

namespace apq {

/// \brief A typed vector of values (a materialized column fragment).
struct ValueVec {
  DataType type = DataType::kInt64;
  std::vector<int64_t> i64;        // ints / date days / dictionary codes
  std::vector<double> f64;
  const Column* dict = nullptr;    // dictionary provider for string codes

  uint64_t size() const {
    return type == DataType::kFloat64 ? f64.size() : i64.size();
  }
  bool is_f64() const { return type == DataType::kFloat64; }

  double AsDouble(uint64_t i) const {
    return is_f64() ? f64[i] : static_cast<double>(i64[i]);
  }
  int64_t AsInt(uint64_t i) const {
    return is_f64() ? static_cast<int64_t>(f64[i]) : i64[i];
  }

  void Reserve(uint64_t n) {
    if (is_f64()) f64.reserve(n); else i64.reserve(n);
  }
  void Append(const ValueVec& other) {
    if (is_f64()) f64.insert(f64.end(), other.f64.begin(), other.f64.end());
    else i64.insert(i64.end(), other.i64.begin(), other.i64.end());
  }
};

/// \brief An immutable, reference-counted row-id buffer: the head of a
/// values intermediate. A producer builds a std::vector<oid> and publishes it
/// once (the converting constructor adopts it without copying); an operator
/// that passes its input's head through (maps, group-by) shares the buffer
/// instead of copying it. Copies are O(1), and no holder can write through
/// one, so shared heads are safe to read from any worker.
class SharedOids {
 public:
  using const_iterator = std::vector<oid>::const_iterator;

  SharedOids() = default;
  SharedOids(std::vector<oid> ids)  // NOLINT(runtime/explicit): publishes
      : buf_(ids.empty() ? nullptr
                         : std::make_shared<const std::vector<oid>>(
                               std::move(ids))) {}

  uint64_t size() const { return buf_ ? buf_->size() : 0; }
  bool empty() const { return size() == 0; }
  oid operator[](uint64_t i) const { return (*buf_)[i]; }
  const oid* data() const { return buf_ ? buf_->data() : nullptr; }
  const std::vector<oid>& vec() const { return buf_ ? *buf_ : Empty(); }
  const_iterator begin() const { return vec().begin(); }
  const_iterator end() const { return vec().end(); }

  /// True when both hold the same buffer (a forwarded, not copied, head).
  bool SharesBufferWith(const SharedOids& other) const {
    return buf_ != nullptr && buf_ == other.buf_;
  }

  friend bool operator==(const SharedOids& a, const SharedOids& b) {
    return a.buf_ == b.buf_ || a.vec() == b.vec();
  }
  friend bool operator!=(const SharedOids& a, const SharedOids& b) {
    return !(a == b);
  }
  friend bool operator==(const SharedOids& a, const std::vector<oid>& b) {
    return a.vec() == b;
  }

 private:
  static const std::vector<oid>& Empty() {
    static const std::vector<oid> empty;
    return empty;
  }

  std::shared_ptr<const std::vector<oid>> buf_;
};

/// \brief The result of one operator execution.
struct Intermediate {
  enum class Kind : uint8_t {
    kNone = 0,
    kRowIds,      // sorted candidate row ids into a base table
    kValues,      // materialized values, optionally with head row ids
    kPairs,       // join result: (left row id, right row id) pairs
    kGroups,      // group ids per input row + distinct group keys
    kGroupedAgg,  // per-group aggregate values (keys + values + counts)
    kScalar,      // single aggregate value
  };

  Kind kind = Kind::kNone;

  // kRowIds / kValues / kPairs: the base range this result was computed from.
  RowRange origin;

  // kRowIds (also the left side of kPairs).
  std::vector<oid> rowids;
  // kPairs: right-side row ids, parallel to rowids.
  std::vector<oid> rrowids;

  // kValues: values and (optional) head row ids aligned 1:1 with values.
  // The head is shared, never copied, by operators that forward it.
  ValueVec values;
  SharedOids head;

  // kGroups: group id per input position; keys indexed by group id.
  std::vector<int64_t> group_ids;
  ValueVec group_keys;

  // kGroupedAgg: group_keys plus per-group aggregate and count.
  std::vector<double> agg_vals;
  std::vector<int64_t> agg_counts;

  // kScalar.
  double scalar = 0.0;
  int64_t scalar_count = 0;

  /// Cardinality of this intermediate (tuples produced).
  uint64_t NumRows() const {
    switch (kind) {
      case Kind::kRowIds: return rowids.size();
      case Kind::kPairs: return rowids.size();
      case Kind::kValues: return values.size();
      case Kind::kGroups: return group_ids.size();
      case Kind::kGroupedAgg: return agg_vals.size();
      case Kind::kScalar: return 1;
      case Kind::kNone: return 0;
    }
    return 0;
  }

  /// Approximate bytes materialized by this intermediate (drives union cost).
  /// A shared head counts for every holder; the evaluator's memory charge
  /// leaves out a head forwarded from an input.
  uint64_t ByteSize() const {
    switch (kind) {
      case Kind::kRowIds: return rowids.size() * sizeof(oid);
      case Kind::kPairs: return rowids.size() * 2 * sizeof(oid);
      case Kind::kValues:
        return values.size() * 8 + head.size() * sizeof(oid);
      case Kind::kGroups:
        return group_ids.size() * 8 + group_keys.size() * 8;
      case Kind::kGroupedAgg: return agg_vals.size() * 24;
      case Kind::kScalar: return 16;
      case Kind::kNone: return 0;
    }
    return 0;
  }

  static const char* KindName(Kind k) {
    switch (k) {
      case Kind::kNone: return "none";
      case Kind::kRowIds: return "rowids";
      case Kind::kValues: return "values";
      case Kind::kPairs: return "pairs";
      case Kind::kGroups: return "groups";
      case Kind::kGroupedAgg: return "groupedagg";
      case Kind::kScalar: return "scalar";
    }
    return "?";
  }
};

}  // namespace apq

#endif  // APQ_EXEC_INTERMEDIATE_H_

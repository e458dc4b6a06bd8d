// QueryPlan: a DAG of PlanNodes with topological evaluation order.
#ifndef APQ_PLAN_PLAN_H_
#define APQ_PLAN_PLAN_H_

#include <string>
#include <vector>

#include "plan/node.h"
#include "util/status.h"

namespace apq {

/// \brief Statistics about a plan's shape (paper Table 5).
struct PlanStats {
  int num_nodes = 0;
  int num_selects = 0;
  int num_joins = 0;
  int num_fetchjoins = 0;
  int num_unions = 0;
  int num_groupbys = 0;
  int num_aggregates = 0;
  int num_maps = 0;
  int max_union_fanin = 0;
  std::string ToString() const;
};

/// \brief A query plan: an append-only list of nodes forming a DAG.
///
/// Node ids are indices into nodes(). Mutations (adaptive parallelization)
/// produce new plans via Clone() + AddNode()/ReplaceInput(); nodes are never
/// removed, only disconnected (disconnected nodes are skipped by
/// TopologicalOrder(), which only returns nodes reachable from the result).
class QueryPlan {
 public:
  QueryPlan() = default;
  explicit QueryPlan(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  /// Appends a node, assigning and returning its id.
  int AddNode(PlanNode node);

  PlanNode& node(int id) { return nodes_[id]; }
  const PlanNode& node(int id) const { return nodes_[id]; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const std::vector<PlanNode>& nodes() const { return nodes_; }

  /// The terminal (result) node id; by convention the unique kResult node.
  int result_id() const { return result_id_; }
  void set_result(int id) { result_id_ = id; }

  /// Ids of nodes that consume `id` as an input, among reachable nodes.
  std::vector<int> Consumers(int id) const;

  /// Nodes reachable from the result, in dependency-respecting order.
  /// Returns an error if a cycle is detected or the result is unset.
  StatusOr<std::vector<int>> TopologicalOrder() const;

  /// Structural validation: input ids in range, result set, acyclic, input
  /// arity sane for each operator kind.
  Status Validate() const;

  QueryPlan Clone() const { return *this; }

  PlanStats Stats() const;

  /// MAL-ish textual rendering for debugging and the examples.
  std::string ToString() const;

 private:
  std::string name_;
  std::vector<PlanNode> nodes_;
  int result_id_ = -1;
};

/// \brief Every node's consumers from one traversal: Of(id) is what
/// QueryPlan::Consumers(id) returns (the same nodes in the same order) for
/// the plan as it was when the index was built. For callers that look up
/// many nodes of an unchanged plan.
class ConsumerIndex {
 public:
  explicit ConsumerIndex(const QueryPlan& plan);

  /// Consumers of `id`; empty for an id the plan did not have.
  std::vector<int> Of(int id) const;

 private:
  // Consumers of node i are flat_[begin_[i], begin_[i + 1]).
  std::vector<int> begin_;
  std::vector<int> flat_;
};

/// \brief Range-partition slices of every reachable node of `kind`, sorted by
/// begin row — the converged partitioning a sequence of basic mutations
/// produced (uniform chunks or the skew-aware value-balanced boundaries),
/// as inspected by tests and the Fig 12 bench.
std::vector<RowRange> PartitionSlices(const QueryPlan& plan, OpKind kind);

}  // namespace apq

#endif  // APQ_PLAN_PLAN_H_

#ifndef PHOTON_PLAN_LOGICAL_PLAN_H_
#define PHOTON_PLAN_LOGICAL_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "baseline/row_operator.h"
#include "expr/expr.h"
#include "ops/hash_aggregate.h"
#include "ops/hash_join.h"
#include "ops/sort.h"
#include "plan/table_stats.h"
#include "storage/delta.h"
#include "vector/table.h"

namespace photon {
namespace plan {

/// Engine-neutral logical operator kinds. A logical plan runs on either
/// engine (exec::Driver / CompileBaseline), which is how the repository
/// reproduces the paper's "identical logical plans during execution" setup
/// for every head-to-head experiment (§6.2).
enum class PlanKind : uint8_t {
  kScan,       // in-memory table
  kDeltaScan,  // Delta table snapshot with pruning
  kFilter,
  kProject,
  kAggregate,
  kJoin,
  kSort,
  kLimit,
};

struct PlanNode;
using PlanPtr = std::shared_ptr<PlanNode>;

/// One logical plan node. Field usage depends on `kind`; unused fields stay
/// default-initialized. Kept as a plain struct (a la Spark's TreeNode) so
/// the converter can pattern-match cheaply.
struct PlanNode {
  PlanKind kind;
  std::vector<PlanPtr> children;
  Schema output_schema;

  // kScan
  const Table* table = nullptr;

  // kDeltaScan
  ObjectStore* store = nullptr;
  DeltaSnapshot snapshot;
  std::vector<int> scan_columns;   // projection pushdown (empty = all)
  ExprPtr scan_predicate;          // pushdown predicate for skipping
  io::IoOptions scan_io;           // block cache / prefetch wiring (src/io)

  // kFilter
  ExprPtr predicate;

  // kProject
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;

  // kAggregate
  std::vector<ExprPtr> group_keys;
  std::vector<std::string> key_names;
  std::vector<AggregateSpec> aggregates;

  // kJoin: children[0] = probe/left (streamed), children[1] = build/right.
  JoinType join_type = JoinType::kInner;
  std::vector<ExprPtr> left_keys;
  std::vector<ExprPtr> right_keys;
  ExprPtr residual;  // extra non-equi condition over [left cols, right cols]

  // kSort
  std::vector<SortKey> sort_keys;

  // kLimit
  int64_t limit = 0;

  /// Optional statistics for scan leaves, over output_schema's columns.
  /// The DeltaScan builder fills this from the snapshot's zone maps + NDV
  /// sketches; in-memory Scan leaves get it from the catalog path (plangen,
  /// tests) via ComputeTableStats. Row counts alone are derivable without
  /// it (table / snapshot row counts); this adds NDV and min/max.
  TableStatsPtr stats;

  std::string ToString(int indent = 0) const;
};

// Construction helpers (each computes the node's output schema).
PlanPtr Scan(const Table* table);
PlanPtr DeltaScan(ObjectStore* store, DeltaSnapshot snapshot,
                  std::vector<int> columns = {}, ExprPtr predicate = nullptr,
                  io::IoOptions io = {});
PlanPtr Filter(PlanPtr child, ExprPtr predicate);
PlanPtr Project(PlanPtr child, std::vector<ExprPtr> exprs,
                std::vector<std::string> names);
PlanPtr Aggregate(PlanPtr child, std::vector<ExprPtr> keys,
                  std::vector<std::string> key_names,
                  std::vector<AggregateSpec> aggs);
PlanPtr Join(PlanPtr probe, PlanPtr build, JoinType type,
             std::vector<ExprPtr> probe_keys, std::vector<ExprPtr> build_keys,
             ExprPtr residual = nullptr);
PlanPtr Sort(PlanPtr child, std::vector<SortKey> keys);
PlanPtr Limit(PlanPtr child, int64_t n);

/// Convenience: column reference into a plan's output schema by name.
ExprPtr ColOf(const PlanPtr& plan, const std::string& name);
int ColIndex(const PlanPtr& plan, const std::string& name);

/// Depth-checks every expression hanging off one plan node (not its
/// children: callers walk the plan, checking each node once). Gates all
/// the recursive walkers behind it: optimizer rewrites, canonicalization,
/// program flattening, tree Evaluate.
Status CheckNodeExprDepths(const PlanNode& node);

/// Result of the aggregate pre-projection rewrite (DESIGN.md §12): when an
/// aggregate computes non-trivial argument expressions (e.g. Q1's
/// price*(1-disc) terms), those move into a Project below the aggregate —
/// where they fuse with the scan-side filter chain and share subexpressions
/// — and the aggregate consumes plain column references.
struct AggPreProject {
  bool fired = false;
  PlanPtr input;  // project over the aggregate's child (set iff fired)
  std::vector<ExprPtr> keys;
  std::vector<AggregateSpec> aggregates;
};

/// Plans the rewrite for `agg` (must be kAggregate). Fires only when at
/// least one aggregate argument is a non-trivial expression; plans whose
/// keys and arguments are all column refs / literals are left untouched,
/// so their physical shape (and profile tree) is unchanged.
AggPreProject PlanAggPreProject(const PlanNode& agg);

/// Which baseline join implementation to use (Figure 4 compares both).
enum class BaselineJoinImpl : uint8_t { kSortMerge, kShuffledHash };

/// Builds the baseline row operator for one node over its already-built
/// children (`children[i]` for `node.children[i]`). Checks nothing: the
/// callers (CompileBaseline, the §5.1 converter) depth-check each node
/// first.
Result<baseline::RowOperatorPtr> CompileBaselineNode(
    const PlanNode& node, std::vector<baseline::RowOperatorPtr> children,
    BaselineJoinImpl join_impl);

/// Compiles to a baseline row operator tree, depth-checking each node.
Result<baseline::RowOperatorPtr> CompileBaseline(
    const PlanPtr& plan,
    BaselineJoinImpl join_impl = BaselineJoinImpl::kSortMerge);

}  // namespace plan
}  // namespace photon

#endif  // PHOTON_PLAN_LOGICAL_PLAN_H_

#ifndef PHOTON_PLAN_CONVERTER_H_
#define PHOTON_PLAN_CONVERTER_H_

#include <functional>

#include "plan/logical_plan.h"

namespace photon {
namespace plan {

/// Decides whether a node may execute in Photon. The default accepts
/// everything; tests and the partial-rollout demo restrict it to exercise
/// fallback (§3.5).
using SupportFn = std::function<bool(const PlanNode&)>;

/// Result of converting a legacy plan into a mixed Photon/legacy physical
/// plan. The root is always a row operator (the legacy engine's interface,
/// as in DBR where the consumer of a query is row-oriented).
struct ConversionResult {
  baseline::RowOperatorPtr root;
  int photon_nodes = 0;
  int legacy_nodes = 0;
  int transitions = 0;
  int adapters = 0;
};

/// The §5.1 conversion rule: walk the plan bottom-up starting at the
/// scans, deciding which nodes execute in Photon. At the first
/// unsupported node, insert a transition (columnar -> row pivot) and run
/// that node — and everything above it — in the legacy engine. Nodes are
/// never converted starting mid-plan (that could multiply pivots; §5.2
/// explains why DBR is conservative here).
///
/// The converter builds no operators of its own: each maximal Photon
/// subtree runs as one task through exec::Driver::RunSingleTask when the
/// transition above it opens, and legacy nodes come from
/// CompileBaselineNode. `adapters` counts the Photon scan leaves — where
/// §5.2's adapter hands columnar scan data to Photon. Every node's
/// expressions are depth-checked at conversion time.
Result<ConversionResult> ConvertPlan(
    const PlanPtr& plan, ExecContext ctx = {},
    const SupportFn& supported = [](const PlanNode&) { return true; },
    BaselineJoinImpl legacy_join = BaselineJoinImpl::kSortMerge);

}  // namespace plan
}  // namespace photon

#endif  // PHOTON_PLAN_CONVERTER_H_

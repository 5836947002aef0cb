#include "plan/converter.h"

#include "exec/driver.h"
#include "plan/transition.h"

namespace photon {
namespace plan {
namespace {

/// One maximal Photon subtree, seen from the legacy engine: on Open it
/// runs the subtree as one Photon task (the driver's fusion, expression
/// tiers and optimizer policy included), then streams the result batches
/// to the transition above it.
class PhotonIsland : public Operator {
 public:
  PhotonIsland(PlanPtr subtree, ExecContext ctx)
      : Operator(subtree->output_schema),
        subtree_(std::move(subtree)),
        ctx_(ctx) {}

  Status Open() override {
    PHOTON_ASSIGN_OR_RETURN(result_,
                            exec::Driver::RunSingleTask(subtree_, ctx_));
    next_batch_ = 0;
    return Status::OK();
  }

  Result<ColumnBatch*> GetNextImpl() override {
    if (next_batch_ >= result_.num_batches()) return nullptr;
    return result_.mutable_batch(next_batch_++);
  }

  std::string name() const override { return "PhotonIsland"; }

 private:
  PlanPtr subtree_;
  ExecContext ctx_;
  Table result_{Schema()};
  int next_batch_ = 0;
};

/// A converted subtree: either still Photon (the plan itself, not yet
/// built) or an already-built legacy row operator.
struct Piece {
  PlanPtr photon;
  baseline::RowOperatorPtr legacy;
};

class Converter {
 public:
  Converter(ExecContext ctx, const SupportFn& supported,
            BaselineJoinImpl legacy_join, ConversionResult* result)
      : ctx_(ctx),
        supported_(supported),
        legacy_join_(legacy_join),
        result_(result) {}

  Result<Piece> Convert(const PlanPtr& node) {
    PHOTON_RETURN_NOT_OK(CheckNodeExprDepths(*node));
    std::vector<Piece> children;
    bool children_photon = true;
    for (const PlanPtr& child : node->children) {
      PHOTON_ASSIGN_OR_RETURN(Piece piece, Convert(child));
      children_photon &= piece.photon != nullptr;
      children.push_back(std::move(piece));
    }

    if (supported_(*node) && children_photon) {
      result_->photon_nodes++;
      if (node->kind == PlanKind::kScan || node->kind == PlanKind::kDeltaScan) {
        result_->adapters++;
      }
      return Piece{node, nullptr};
    }

    // Legacy node: photon children fall back through transitions.
    std::vector<baseline::RowOperatorPtr> legacy_children;
    for (Piece& c : children) {
      legacy_children.push_back(c.photon != nullptr ? Transition(c.photon)
                                                    : std::move(c.legacy));
    }
    PHOTON_ASSIGN_OR_RETURN(
        baseline::RowOperatorPtr op,
        CompileBaselineNode(*node, std::move(legacy_children), legacy_join_));
    result_->legacy_nodes++;
    return Piece{nullptr, std::move(op)};
  }

  /// The columnar -> row pivot above a Photon subtree.
  baseline::RowOperatorPtr Transition(PlanPtr subtree) {
    result_->transitions++;
    return baseline::RowOperatorPtr(new TransitionOperator(
        OperatorPtr(new PhotonIsland(std::move(subtree), ctx_))));
  }

 private:
  ExecContext ctx_;
  const SupportFn& supported_;
  BaselineJoinImpl legacy_join_;
  ConversionResult* result_;
};

}  // namespace

Result<ConversionResult> ConvertPlan(const PlanPtr& plan, ExecContext ctx,
                                     const SupportFn& supported,
                                     BaselineJoinImpl legacy_join) {
  ConversionResult result;
  Converter converter(ctx, supported, legacy_join, &result);
  PHOTON_ASSIGN_OR_RETURN(Piece root, converter.Convert(plan));
  // A whole-Photon plan gets a single transition that hands rows to the
  // consumer, like Spark's final column-to-row pivot.
  result.root = root.photon != nullptr ? converter.Transition(root.photon)
                                       : std::move(root.legacy);
  return result;
}

}  // namespace plan
}  // namespace photon

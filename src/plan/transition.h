#ifndef PHOTON_PLAN_TRANSITION_H_
#define PHOTON_PLAN_TRANSITION_H_

#include "baseline/row_operator.h"
#include "ops/operator.h"

namespace photon {

/// The "transition node" of §5.2: sits on top of a Photon subtree and
/// pivots its column batches into rows for the legacy row-wise engine.
/// Since Spark's own columnar scans also need one column-to-row pivot,
/// adding a single transition above a Photon plan does not regress versus
/// the pure legacy plan.
class TransitionOperator : public baseline::RowOperator {
 public:
  explicit TransitionOperator(OperatorPtr child)
      : RowOperator(child->output_schema()), child_(std::move(child)) {}

  Status Open() override {
    row_ = 0;
    current_ = nullptr;
    rows_emitted_ = 0;
    return child_->Open();
  }

  Result<bool> NextImpl(baseline::Row* row) override {
    while (true) {
      if (current_ != nullptr && row_ < current_->num_active()) {
        int r = current_->ActiveRow(row_++);
        row->clear();
        for (int c = 0; c < current_->num_columns(); c++) {
          row->push_back(current_->column(c)->GetValue(r));
        }
        rows_emitted_++;
        return true;
      }
      PHOTON_ASSIGN_OR_RETURN(current_, child_->GetNext());
      if (current_ == nullptr) return false;
      row_ = 0;
    }
  }

  void Close() override { child_->Close(); }
  std::string name() const override { return "Transition"; }

  Operator* photon_child() { return child_.get(); }
  int64_t rows_emitted() const { return rows_emitted_; }

 private:
  OperatorPtr child_;
  ColumnBatch* current_ = nullptr;
  int row_ = 0;
  int64_t rows_emitted_ = 0;
};

/// The "adapter node" of §5.2: the leaf of every Photon plan, passing
/// pointers to columnar scan data into Photon without copying. In this
/// single-process reproduction the adapter wraps any columnar Operator and
/// forwards batches through a simulated foreign-function boundary: one
/// indirect call per batch whose cost is comparable to a C++ virtual call
/// (~23 ns in the paper's measurement, §5.2). The call counter feeds the
/// §6.3 overhead analysis; the §5.1 converter only counts the scan leaves
/// where an adapter would sit, since its Photon islands run in-process.
class AdapterOperator : public Operator {
 public:
  explicit AdapterOperator(OperatorPtr child)
      : Operator(child->output_schema()), child_(std::move(child)) {}

  Status Open() override { return child_->Open(); }

  Result<ColumnBatch*> GetNextImpl() override {
    // One boundary crossing per batch: the paper amortizes the JNI call by
    // batching exactly like this.
    boundary_calls_++;
    return child_->GetNext();
  }

  void Close() override { child_->Close(); }
  std::string name() const override { return "PhotonAdapter"; }
  std::vector<Operator*> children() override { return {child_.get()}; }

  int64_t boundary_calls() const { return boundary_calls_; }

 private:
  OperatorPtr child_;
  int64_t boundary_calls_ = 0;
};

}  // namespace photon

#endif  // PHOTON_PLAN_TRANSITION_H_

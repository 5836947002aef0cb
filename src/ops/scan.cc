#include "ops/scan.h"

#include <cstring>

namespace photon {

void CopyBatchShallow(const ColumnBatch& src, ColumnBatch* dst) {
  PHOTON_CHECK(dst->capacity() >= src.num_rows());
  int n = src.num_rows();
  for (int c = 0; c < src.num_columns(); c++) {
    const ColumnVector& in = *src.column(c);
    ColumnVector* out = dst->column(c);
    std::memcpy(out->nulls(), in.nulls(), n);
    std::memcpy(out->data<uint8_t>(), in.data<uint8_t>(),
                static_cast<size_t>(n) * in.type().byte_width());
    out->set_has_nulls(in.has_nulls());
    out->set_all_ascii(in.all_ascii());
  }
  dst->set_num_rows(n);
  if (src.all_active()) {
    dst->SetAllActive();
  } else {
    std::memcpy(dst->mutable_pos_list(), src.pos_list(),
                static_cast<size_t>(src.num_active()) * sizeof(int32_t));
    dst->SetActiveRows(src.num_active());
  }
}

Result<ColumnBatch*> InMemoryScanOperator::GetNextImpl() {
  int end = end_batch_ < 0 ? table_->num_batches() : end_batch_;
  if (next_batch_ >= end) return nullptr;
  const ColumnBatch& src = table_->batch(next_batch_++);
  if (out_ == nullptr || out_->capacity() < src.num_rows()) {
    out_ = std::make_unique<ColumnBatch>(table_->schema(),
                                         std::max(src.capacity(),
                                                  kDefaultBatchSize));
  }
  CopyBatchShallow(src, out_.get());
  return out_.get();
}

}  // namespace photon

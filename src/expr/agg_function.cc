#include "expr/agg_function.h"

#include <algorithm>
#include <cstring>

#include "common/macros.h"
#include "types/big_decimal.h"
#include "types/decimal.h"

namespace photon {
namespace {

// ---------------------------------------------------------------------------
// count(*) / count(x)
// ---------------------------------------------------------------------------

struct CountState {
  int64_t count;
};

class CountAgg : public AggregateFunction {
 public:
  explicit CountAgg(bool count_star) : count_star_(count_star) {}

  DataType result_type() const override { return DataType::Int64(); }
  int state_bytes() const override { return sizeof(CountState); }
  void Init(uint8_t* state) const override {
    std::memset(state, 0, sizeof(CountState));
  }

  void Update(const ColumnVector* arg, const ColumnBatch& batch,
              uint8_t* const* states) const override {
    int n = batch.num_active();
    if (count_star_) {
      for (int i = 0; i < n; i++) {
        if (states[i] == nullptr) continue;
        reinterpret_cast<CountState*>(states[i])->count++;
      }
      return;
    }
    const uint8_t* nulls = arg->nulls();
    for (int i = 0; i < n; i++) {
      if (states[i] == nullptr) continue;
      int row = batch.ActiveRow(i);
      reinterpret_cast<CountState*>(states[i])->count += nulls[row] ? 0 : 1;
    }
  }

  void Merge(uint8_t* dst, const uint8_t* src) const override {
    reinterpret_cast<CountState*>(dst)->count +=
        reinterpret_cast<const CountState*>(src)->count;
  }

  void Finalize(const uint8_t* state, ColumnVector* out,
                int row) const override {
    out->SetNotNull(row);
    out->data<int64_t>()[row] =
        reinterpret_cast<const CountState*>(state)->count;
  }

  void Serialize(const uint8_t* state, BinaryWriter* out) const override {
    out->WriteI64(reinterpret_cast<const CountState*>(state)->count);
  }
  Status Deserialize(BinaryReader* in, uint8_t* state) const override {
    return in->ReadI64(&reinterpret_cast<CountState*>(state)->count);
  }

 private:
  bool count_star_;
};

// ---------------------------------------------------------------------------
// sum / avg over int64, float64, decimal. Sums track "saw any non-null" so
// the SQL result of sum over all-NULL input is NULL.
// ---------------------------------------------------------------------------

template <typename T, typename AccT>
struct SumState {
  AccT sum;
  int64_t count;  // non-null inputs
  /// Decimal only: net number of int128 wraparounds (+1 when adding a
  /// positive value wrapped, -1 when adding a negative one did). Because
  /// wrapping is arithmetic mod 2^128, the accumulator's true value is
  /// always exactly wraps * 2^128 + sum — a transient wrap that later
  /// cancels (mixed-sign inputs) leaves wraps == 0 and sum exact, matching
  /// the row engine's unbounded BigDecimal accumulation. Carried through
  /// Merge and Serialize so partial aggregates survive the shuffle.
  int64_t wraps;
};

template <typename T, typename AccT, TypeId kArgId>
class SumAgg : public AggregateFunction {
 public:
  SumAgg(DataType result, bool is_avg, int avg_shift = 0)
      : result_(result), is_avg_(is_avg), avg_shift_(avg_shift) {}

  DataType result_type() const override { return result_; }
  int state_bytes() const override { return sizeof(SumState<T, AccT>); }
  void Init(uint8_t* state) const override {
    std::memset(state, 0, sizeof(SumState<T, AccT>));
  }

  void Update(const ColumnVector* arg, const ColumnBatch& batch,
              uint8_t* const* states) const override {
    int n = batch.num_active();
    const T* vals = arg->data<T>();
    const uint8_t* nulls = arg->nulls();
    for (int i = 0; i < n; i++) {
      if (states[i] == nullptr) continue;
      int row = batch.ActiveRow(i);
      if (nulls[row]) continue;
      auto* s = reinterpret_cast<SumState<T, AccT>*>(states[i]);
      if constexpr (std::is_same_v<AccT, int128_t>) {
        if (__builtin_add_overflow(s->sum, vals[row], &s->sum)) {
          s->wraps += vals[row] > 0 ? 1 : -1;
        }
      } else {
        s->sum += static_cast<AccT>(vals[row]);
      }
      s->count++;
    }
  }

  void Merge(uint8_t* dst, const uint8_t* src) const override {
    auto* d = reinterpret_cast<SumState<T, AccT>*>(dst);
    const auto* s = reinterpret_cast<const SumState<T, AccT>*>(src);
    if constexpr (std::is_same_v<AccT, int128_t>) {
      if (__builtin_add_overflow(d->sum, s->sum, &d->sum)) {
        d->wraps += s->sum > 0 ? 1 : -1;
      }
      d->wraps += s->wraps;
    } else {
      d->sum += s->sum;
    }
    d->count += s->count;
  }

  void Finalize(const uint8_t* state, ColumnVector* out,
                int row) const override {
    const auto* s = reinterpret_cast<const SumState<T, AccT>*>(state);
    if (s->count == 0) {
      out->SetNull(row);
      return;
    }
    if constexpr (std::is_same_v<AccT, int128_t>) {
      // Decimal sum/avg finalize exactly like the row engine's
      // SumDecimalState: a sum (or avg quotient) beyond the 38-digit cap
      // is NULL, not a wrapped int128. A sum that never wrapped finalizes
      // in int128; BigDecimal only takes the rest.
      int128_t narrow = 0;
      bool is_null = false;
      if (s->wraps == 0 &&
          FinalizeNarrow(s->sum, s->count, &narrow, &is_null)) {
        if (is_null) {
          out->SetNull(row);
        } else {
          out->SetNotNull(row);
          out->data<int128_t>()[row] = narrow;
        }
        return;
      }
      // The exact sum is wraps * 2^128 + sum; 2^128 exceeds int128 so it
      // is composed as (2^64)^2, putting arg_scale on one factor only.
      int arg_scale = result_.scale() - avg_shift_;
      BigDecimal sum = BigDecimal::FromDecimal128(Decimal128(s->sum),
                                                  arg_scale);
      if (s->wraps != 0) {
        BigDecimal two64_scaled = BigDecimal::FromDecimal128(
            Decimal128(static_cast<int128_t>(1) << 64), arg_scale);
        BigDecimal two64 = BigDecimal::FromDecimal128(
            Decimal128(static_cast<int128_t>(1) << 64), 0);
        sum = sum.Add(two64_scaled.Multiply(two64).Multiply(
            BigDecimal::FromInt64(s->wraps, 0)));
      }
      if (is_avg_) {
        sum = sum.Divide(BigDecimal::FromInt64(s->count, 0),
                         result_.scale());
      }
      Decimal128 v;
      if (!sum.ToDecimal128(result_.scale(), &v)) {
        out->SetNull(row);
        return;
      }
      out->SetNotNull(row);
      out->data<int128_t>()[row] = v.value();
      return;
    } else {
      out->SetNotNull(row);
      if (!is_avg_) {
        out->data<AccT>()[row] = s->sum;
        return;
      }
      out->data<double>()[row] =
          static_cast<double>(s->sum) / static_cast<double>(s->count);
    }
  }

  void Serialize(const uint8_t* state, BinaryWriter* out) const override {
    const auto* s = reinterpret_cast<const SumState<T, AccT>*>(state);
    if constexpr (std::is_same_v<AccT, int128_t>) {
      uint128_t v = static_cast<uint128_t>(s->sum);
      out->WriteU64(static_cast<uint64_t>(v));
      out->WriteU64(static_cast<uint64_t>(v >> 64));
      out->WriteI64(s->wraps);
    } else if constexpr (std::is_same_v<AccT, double>) {
      out->WriteF64(s->sum);
    } else {
      out->WriteI64(s->sum);
    }
    out->WriteI64(s->count);
  }

  Status Deserialize(BinaryReader* in, uint8_t* state) const override {
    auto* s = reinterpret_cast<SumState<T, AccT>*>(state);
    if constexpr (std::is_same_v<AccT, int128_t>) {
      uint64_t lo = 0, hi = 0;
      PHOTON_RETURN_NOT_OK(in->ReadU64(&lo));
      PHOTON_RETURN_NOT_OK(in->ReadU64(&hi));
      s->sum = static_cast<int128_t>((static_cast<uint128_t>(hi) << 64) | lo);
      PHOTON_RETURN_NOT_OK(in->ReadI64(&s->wraps));
    } else if constexpr (std::is_same_v<AccT, double>) {
      PHOTON_RETURN_NOT_OK(in->ReadF64(&s->sum));
    } else {
      PHOTON_RETURN_NOT_OK(in->ReadI64(&s->sum));
    }
    return in->ReadI64(&s->count);
  }

 private:
  /// Finalizes a sum that did not wrap in int128: the sum itself, or the
  /// avg quotient sum * 10^avg_shift / count rounded HALF_UP (half away
  /// from zero), as BigDecimal's Divide rounds. `*is_null` = beyond 38
  /// digits. Returns false when the multiply overflows 128 bits (the
  /// caller then takes the BigDecimal path).
  bool FinalizeNarrow(int128_t sum, int64_t count, int128_t* out,
                      bool* is_null) const {
    uint128_t mag = sum < 0 ? -static_cast<uint128_t>(sum)
                            : static_cast<uint128_t>(sum);
    if (is_avg_) {
      uint128_t scaled = 0;
      if (__builtin_mul_overflow(
              mag, static_cast<uint128_t>(Decimal128::PowerOfTen(avg_shift_)),
              &scaled)) {
        return false;
      }
      const uint128_t divisor = static_cast<uint128_t>(count);
      const uint128_t rem = scaled % divisor;
      mag = scaled / divisor + (rem >= divisor - rem ? 1 : 0);
    }
    *is_null =
        mag > static_cast<uint128_t>(Decimal128::MaxValueForPrecision(38));
    if (!*is_null) {
      *out = sum < 0 ? -static_cast<int128_t>(mag) : static_cast<int128_t>(mag);
    }
    return true;
  }

  DataType result_;
  bool is_avg_;
  int avg_shift_;  // 10^shift applied before dividing (decimal avg)
};

// ---------------------------------------------------------------------------
// min / max
// ---------------------------------------------------------------------------

template <typename T>
struct MinMaxState {
  T value;
  uint8_t has_value;
};

template <typename T, TypeId kArgId, bool kIsMin>
class MinMaxAgg : public AggregateFunction {
 public:
  explicit MinMaxAgg(DataType type) : type_(type) {}

  DataType result_type() const override { return type_; }
  int state_bytes() const override { return sizeof(MinMaxState<T>); }
  void Init(uint8_t* state) const override {
    std::memset(state, 0, sizeof(MinMaxState<T>));
  }

  static bool Better(const T& candidate, const T& incumbent) {
    if constexpr (std::is_same_v<T, StringRef>) {
      int min_len = std::min(candidate.len, incumbent.len);
      int c = min_len == 0 ? 0
                           : std::memcmp(candidate.data, incumbent.data,
                                         min_len);
      int cmp = c != 0 ? c : candidate.len - incumbent.len;
      return kIsMin ? cmp < 0 : cmp > 0;
    } else {
      return kIsMin ? candidate < incumbent : candidate > incumbent;
    }
  }

  void Update(const ColumnVector* arg, const ColumnBatch& batch,
              uint8_t* const* states) const override {
    int n = batch.num_active();
    const T* vals = arg->data<T>();
    const uint8_t* nulls = arg->nulls();
    for (int i = 0; i < n; i++) {
      if (states[i] == nullptr) continue;
      int row = batch.ActiveRow(i);
      if (nulls[row]) continue;
      auto* s = reinterpret_cast<MinMaxState<T>*>(states[i]);
      if (!s->has_value || Better(vals[row], s->value)) {
        if constexpr (std::is_same_v<T, StringRef>) {
          // Copy into the aggregation arena: the input batch is transient.
          s->value = arena_->AddString(vals[row]);
        } else {
          s->value = vals[row];
        }
        s->has_value = 1;
      }
    }
  }

  void Merge(uint8_t* dst, const uint8_t* src) const override {
    auto* d = reinterpret_cast<MinMaxState<T>*>(dst);
    const auto* s = reinterpret_cast<const MinMaxState<T>*>(src);
    if (!s->has_value) return;
    if (!d->has_value || Better(s->value, d->value)) {
      if constexpr (std::is_same_v<T, StringRef>) {
        d->value = arena_->AddString(s->value);
      } else {
        d->value = s->value;
      }
      d->has_value = 1;
    }
  }

  void Finalize(const uint8_t* state, ColumnVector* out,
                int row) const override {
    const auto* s = reinterpret_cast<const MinMaxState<T>*>(state);
    if (!s->has_value) {
      out->SetNull(row);
      return;
    }
    out->SetNotNull(row);
    if constexpr (std::is_same_v<T, StringRef>) {
      out->SetString(row, s->value.data, s->value.len);
    } else {
      out->data<T>()[row] = s->value;
    }
  }

  void Serialize(const uint8_t* state, BinaryWriter* out) const override {
    const auto* s = reinterpret_cast<const MinMaxState<T>*>(state);
    out->WriteU8(s->has_value);
    if (!s->has_value) return;
    if constexpr (std::is_same_v<T, StringRef>) {
      out->WriteString(std::string_view(s->value.data, s->value.len));
    } else {
      out->Append(&s->value, sizeof(T));
    }
  }

  Status Deserialize(BinaryReader* in, uint8_t* state) const override {
    auto* s = reinterpret_cast<MinMaxState<T>*>(state);
    PHOTON_RETURN_NOT_OK(in->ReadU8(&s->has_value));
    if (!s->has_value) return Status::OK();
    if constexpr (std::is_same_v<T, StringRef>) {
      std::string str;
      PHOTON_RETURN_NOT_OK(in->ReadString(&str));
      s->value = arena_->AddString(str.data(),
                                   static_cast<int32_t>(str.size()));
    } else {
      PHOTON_RETURN_NOT_OK(in->ReadRaw(&s->value, sizeof(T)));
    }
    return Status::OK();
  }

 private:
  DataType type_;
};

// ---------------------------------------------------------------------------
// collect_list(string): variable-size per-group state. State is a linked
// list of arena-allocated nodes, so list growth across groups shares the
// same allocator instead of per-group containers (cf. DBR's Scala
// collections in §6.1). The final value renders as "[a, b, c]".
// ---------------------------------------------------------------------------

struct CollectNode {
  StringRef value;
  CollectNode* next;
};

struct CollectState {
  CollectNode* head;
  CollectNode* tail;
  int64_t count;
};

class CollectListAgg : public AggregateFunction {
 public:
  DataType result_type() const override { return DataType::String(); }
  int state_bytes() const override { return sizeof(CollectState); }
  void Init(uint8_t* state) const override {
    std::memset(state, 0, sizeof(CollectState));
  }

  void Update(const ColumnVector* arg, const ColumnBatch& batch,
              uint8_t* const* states) const override {
    int n = batch.num_active();
    const StringRef* vals = arg->data<StringRef>();
    const uint8_t* nulls = arg->nulls();
    for (int i = 0; i < n; i++) {
      if (states[i] == nullptr) continue;
      int row = batch.ActiveRow(i);
      if (nulls[row]) continue;  // collect_list skips NULLs (Spark)
      Append(reinterpret_cast<CollectState*>(states[i]),
             arena_->AddString(vals[row]));
    }
  }

  void Merge(uint8_t* dst, const uint8_t* src) const override {
    auto* d = reinterpret_cast<CollectState*>(dst);
    const auto* s = reinterpret_cast<const CollectState*>(src);
    for (CollectNode* node = s->head; node != nullptr; node = node->next) {
      Append(d, arena_->AddString(node->value));
    }
  }

  void Finalize(const uint8_t* state, ColumnVector* out,
                int row) const override {
    const auto* s = reinterpret_cast<const CollectState*>(state);
    std::string rendered = "[";
    bool first = true;
    for (CollectNode* node = s->head; node != nullptr; node = node->next) {
      if (!first) rendered += ", ";
      rendered.append(node->value.data, node->value.len);
      first = false;
    }
    rendered += "]";
    out->SetNotNull(row);
    out->SetString(row, rendered);
  }

  void Serialize(const uint8_t* state, BinaryWriter* out) const override {
    const auto* s = reinterpret_cast<const CollectState*>(state);
    out->WriteVarU64(static_cast<uint64_t>(s->count));
    for (CollectNode* node = s->head; node != nullptr; node = node->next) {
      out->WriteString(std::string_view(node->value.data, node->value.len));
    }
  }

  Status Deserialize(BinaryReader* in, uint8_t* state) const override {
    auto* s = reinterpret_cast<CollectState*>(state);
    uint64_t count = 0;
    PHOTON_RETURN_NOT_OK(in->ReadVarU64(&count));
    for (uint64_t i = 0; i < count; i++) {
      std::string str;
      PHOTON_RETURN_NOT_OK(in->ReadString(&str));
      Append(s, arena_->AddString(str.data(),
                                  static_cast<int32_t>(str.size())));
    }
    return Status::OK();
  }

 private:
  void Append(CollectState* s, StringRef value) const {
    auto* node = reinterpret_cast<CollectNode*>(
        arena_->AllocateBytes(sizeof(CollectNode)));
    node->value = value;
    node->next = nullptr;
    if (s->tail == nullptr) {
      s->head = s->tail = node;
    } else {
      s->tail->next = node;
      s->tail = node;
    }
    s->count++;
  }
};

}  // namespace

Result<DataType> AggResultType(AggKind kind, const DataType& arg_type) {
  switch (kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return DataType::Int64();
    case AggKind::kSum:
      switch (arg_type.id()) {
        case TypeId::kInt32:
        case TypeId::kInt64:
          return DataType::Int64();
        case TypeId::kFloat64:
          return DataType::Float64();
        case TypeId::kDecimal128:
          return DataType::Decimal(
              std::min(38, arg_type.precision() + 10), arg_type.scale());
        default:
          return Status::InvalidArgument("sum: numeric argument required");
      }
    case AggKind::kAvg:
      switch (arg_type.id()) {
        case TypeId::kInt32:
        case TypeId::kInt64:
        case TypeId::kFloat64:
          return DataType::Float64();
        case TypeId::kDecimal128:
          return DataType::Decimal(
              std::min(38, arg_type.precision() + 4),
              std::min(38, arg_type.scale() + 4));
        default:
          return Status::InvalidArgument("avg: numeric argument required");
      }
    case AggKind::kMin:
    case AggKind::kMax:
      return arg_type;
    case AggKind::kCollectList:
      if (!arg_type.is_string()) {
        return Status::InvalidArgument("collect_list: string argument");
      }
      return DataType::String();
  }
  return Status::Internal("bad agg kind");
}

Result<std::unique_ptr<AggregateFunction>> MakeAggregateFunction(
    AggKind kind, const DataType& arg_type) {
  PHOTON_ASSIGN_OR_RETURN(DataType result, AggResultType(kind, arg_type));
  switch (kind) {
    case AggKind::kCountStar:
      return std::unique_ptr<AggregateFunction>(new CountAgg(true));
    case AggKind::kCount:
      return std::unique_ptr<AggregateFunction>(new CountAgg(false));
    case AggKind::kSum:
    case AggKind::kAvg: {
      bool is_avg = kind == AggKind::kAvg;
      switch (arg_type.id()) {
        case TypeId::kInt32:
          if (is_avg) {
            return std::unique_ptr<AggregateFunction>(
                new SumAgg<int32_t, double, TypeId::kInt32>(result, true));
          }
          return std::unique_ptr<AggregateFunction>(
              new SumAgg<int32_t, int64_t, TypeId::kInt32>(result, false));
        case TypeId::kInt64:
          if (is_avg) {
            return std::unique_ptr<AggregateFunction>(
                new SumAgg<int64_t, double, TypeId::kInt64>(result, true));
          }
          return std::unique_ptr<AggregateFunction>(
              new SumAgg<int64_t, int64_t, TypeId::kInt64>(result, false));
        case TypeId::kFloat64:
          return std::unique_ptr<AggregateFunction>(
              new SumAgg<double, double, TypeId::kFloat64>(result, is_avg));
        case TypeId::kDecimal128: {
          // avg divides sum (at arg scale) by count, producing result
          // scale: shift = result.scale - arg.scale.
          int shift = is_avg ? result.scale() - arg_type.scale() : 0;
          return std::unique_ptr<AggregateFunction>(
              new SumAgg<int128_t, int128_t, TypeId::kDecimal128>(
                  result, is_avg, shift));
        }
        default:
          return Status::InvalidArgument("sum/avg: bad argument type");
      }
    }
    case AggKind::kMin:
    case AggKind::kMax: {
      bool is_min = kind == AggKind::kMin;
      switch (arg_type.id()) {
        case TypeId::kInt32:
        case TypeId::kDate32:
          if (is_min) {
            return std::unique_ptr<AggregateFunction>(
                new MinMaxAgg<int32_t, TypeId::kInt32, true>(arg_type));
          }
          return std::unique_ptr<AggregateFunction>(
              new MinMaxAgg<int32_t, TypeId::kInt32, false>(arg_type));
        case TypeId::kInt64:
        case TypeId::kTimestamp:
          if (is_min) {
            return std::unique_ptr<AggregateFunction>(
                new MinMaxAgg<int64_t, TypeId::kInt64, true>(arg_type));
          }
          return std::unique_ptr<AggregateFunction>(
              new MinMaxAgg<int64_t, TypeId::kInt64, false>(arg_type));
        case TypeId::kFloat64:
          if (is_min) {
            return std::unique_ptr<AggregateFunction>(
                new MinMaxAgg<double, TypeId::kFloat64, true>(arg_type));
          }
          return std::unique_ptr<AggregateFunction>(
              new MinMaxAgg<double, TypeId::kFloat64, false>(arg_type));
        case TypeId::kDecimal128:
          if (is_min) {
            return std::unique_ptr<AggregateFunction>(
                new MinMaxAgg<int128_t, TypeId::kDecimal128, true>(arg_type));
          }
          return std::unique_ptr<AggregateFunction>(
              new MinMaxAgg<int128_t, TypeId::kDecimal128, false>(arg_type));
        case TypeId::kString:
          if (is_min) {
            return std::unique_ptr<AggregateFunction>(
                new MinMaxAgg<StringRef, TypeId::kString, true>(arg_type));
          }
          return std::unique_ptr<AggregateFunction>(
              new MinMaxAgg<StringRef, TypeId::kString, false>(arg_type));
        default:
          return Status::InvalidArgument("min/max: bad argument type");
      }
    }
    case AggKind::kCollectList:
      return std::unique_ptr<AggregateFunction>(new CollectListAgg());
  }
  return Status::Internal("bad agg kind");
}

std::string AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCountStar:
      return "count(*)";
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kAvg:
      return "avg";
    case AggKind::kCollectList:
      return "collect_list";
  }
  return "?";
}

}  // namespace photon

#include "expr/agg_function.h"

#include <gtest/gtest.h>

#include <optional>

#include "common/byte_buffer.h"
#include "common/rng.h"
#include "types/big_decimal.h"
#include "vector/table.h"

namespace photon {
namespace {

/// Drives one aggregate function directly: feeds it batches, optionally
/// round-trips the state through Serialize/Deserialize and Merge, then
/// finalizes. Exercises the state machinery the HashAggregate operator
/// relies on, in isolation.
class AggHarness {
 public:
  AggHarness(AggKind kind, DataType arg_type) : arg_type_(arg_type) {
    Result<std::unique_ptr<AggregateFunction>> fn =
        MakeAggregateFunction(kind, arg_type);
    PHOTON_CHECK(fn.ok());
    fn_ = std::move(fn).ValueOrDie();
    fn_->set_arena(&arena_);
    state_.assign(fn_->state_bytes() + 16, 0);
    fn_->Init(state());
  }

  uint8_t* state() {
    // 16-align within the backing buffer (decimal states hold __int128).
    return reinterpret_cast<uint8_t*>(
        (reinterpret_cast<uintptr_t>(state_.data()) + 15) & ~uintptr_t{15});
  }

  void Update(const std::vector<Value>& values) {
    Schema schema({Field("x", arg_type_)});
    ColumnBatch batch(schema, std::max<int>(1, values.size()));
    for (size_t i = 0; i < values.size(); i++) {
      batch.column(0)->SetValue(static_cast<int>(i), values[i]);
    }
    batch.set_num_rows(static_cast<int>(values.size()));
    batch.SetAllActive();
    std::vector<uint8_t*> states(values.size(), state());
    fn_->Update(batch.column(0), batch, states.data());
  }

  Value Finalize() {
    ColumnVector out(fn_->result_type(), 1);
    fn_->Finalize(state(), &out, 0);
    return out.GetValue(0);
  }

  /// Serialize -> fresh state -> Deserialize -> Merge into another fresh
  /// state; returns the merged finalize. Mimics the spill-merge path.
  Value RoundTripAndFinalize() {
    BinaryWriter w;
    fn_->Serialize(state(), &w);
    std::vector<uint8_t> buf_a(fn_->state_bytes() + 16, 0),
        buf_b(fn_->state_bytes() + 16, 0);
    auto align = [](std::vector<uint8_t>& v) {
      return reinterpret_cast<uint8_t*>(
          (reinterpret_cast<uintptr_t>(v.data()) + 15) & ~uintptr_t{15});
    };
    uint8_t* restored = align(buf_a);
    uint8_t* merged = align(buf_b);
    fn_->Init(restored);
    BinaryReader r(w.data().data(), w.size());
    PHOTON_CHECK(fn_->Deserialize(&r, restored).ok());
    fn_->Init(merged);
    fn_->Merge(merged, restored);
    ColumnVector out(fn_->result_type(), 1);
    fn_->Finalize(merged, &out, 0);
    return out.GetValue(0);
  }

 private:
  DataType arg_type_;
  std::unique_ptr<AggregateFunction> fn_;
  VarLenPool arena_;
  std::vector<uint8_t> state_;
};

TEST(AggFunctionTest, CountSkipsNulls) {
  AggHarness h(AggKind::kCount, DataType::Int64());
  h.Update({Value::Int64(1), Value::Null(), Value::Int64(3)});
  EXPECT_EQ(h.Finalize(), Value::Int64(2));
  EXPECT_EQ(h.RoundTripAndFinalize(), Value::Int64(2));
}

TEST(AggFunctionTest, CountStarCountsNulls) {
  AggHarness h(AggKind::kCountStar, DataType::Int64());
  h.Update({Value::Int64(1), Value::Null(), Value::Int64(3)});
  EXPECT_EQ(h.Finalize(), Value::Int64(3));
}

TEST(AggFunctionTest, SumInt64) {
  AggHarness h(AggKind::kSum, DataType::Int64());
  h.Update({Value::Int64(10), Value::Int64(-3), Value::Null()});
  h.Update({Value::Int64(5)});
  EXPECT_EQ(h.Finalize(), Value::Int64(12));
  EXPECT_EQ(h.RoundTripAndFinalize(), Value::Int64(12));
}

TEST(AggFunctionTest, SumAllNullIsNull) {
  AggHarness h(AggKind::kSum, DataType::Int64());
  h.Update({Value::Null(), Value::Null()});
  EXPECT_TRUE(h.Finalize().is_null());
  EXPECT_TRUE(h.RoundTripAndFinalize().is_null());
}

TEST(AggFunctionTest, SumDecimalKeepsScale) {
  AggHarness h(AggKind::kSum, DataType::Decimal(12, 2));
  h.Update({Value::Decimal(Decimal128::FromInt64(1050)),   // 10.50
            Value::Decimal(Decimal128::FromInt64(275))});  // 2.75
  Value v = h.Finalize();
  EXPECT_EQ(v.decimal().ToString(2), "13.25");
  EXPECT_EQ(h.RoundTripAndFinalize().decimal().ToString(2), "13.25");
}

TEST(AggFunctionTest, AvgDecimalWidensScale) {
  // avg over decimal(12,2) yields decimal(16,6): 1.00+2.00 / 2 = 1.500000.
  AggHarness h(AggKind::kAvg, DataType::Decimal(12, 2));
  h.Update({Value::Decimal(Decimal128::FromInt64(100)),
            Value::Decimal(Decimal128::FromInt64(200))});
  EXPECT_EQ(h.Finalize().decimal().ToString(6), "1.500000");
}

/// The BigDecimal finalize of a decimal sum/avg state, as the engine did
/// it for every group before the int128 path: the exact sum
/// wraps * 2^128 + sum, divided by count HALF_UP for avg, NULL beyond 38
/// digits (nullopt).
std::optional<int128_t> BigDecimalFinalize(int128_t sum, int64_t wraps,
                                           int64_t count, bool is_avg,
                                           int arg_scale, int result_scale) {
  BigDecimal exact = BigDecimal::FromDecimal128(Decimal128(sum), arg_scale);
  if (wraps != 0) {
    BigDecimal two64_scaled = BigDecimal::FromDecimal128(
        Decimal128(static_cast<int128_t>(1) << 64), arg_scale);
    BigDecimal two64 = BigDecimal::FromDecimal128(
        Decimal128(static_cast<int128_t>(1) << 64), 0);
    exact = exact.Add(two64_scaled.Multiply(two64).Multiply(
        BigDecimal::FromInt64(wraps, 0)));
  }
  if (is_avg) {
    exact = exact.Divide(BigDecimal::FromInt64(count, 0), result_scale);
  }
  Decimal128 v;
  if (!exact.ToDecimal128(result_scale, &v)) return std::nullopt;
  return v.value();
}

/// Finalizes the decimal sum/avg state (sum, wraps, count) through the
/// aggregate function itself (the state is installed via Deserialize).
Value FinalizeDecimalState(AggKind kind, const DataType& arg, int128_t sum,
                           int64_t wraps, int64_t count) {
  Result<std::unique_ptr<AggregateFunction>> fn =
      MakeAggregateFunction(kind, arg);
  PHOTON_CHECK(fn.ok());
  alignas(16) uint8_t state[64];
  PHOTON_CHECK((*fn)->state_bytes() <= static_cast<int>(sizeof(state)));
  (*fn)->Init(state);
  BinaryWriter w;
  uint128_t bits = static_cast<uint128_t>(sum);
  w.WriteU64(static_cast<uint64_t>(bits));
  w.WriteU64(static_cast<uint64_t>(bits >> 64));
  w.WriteI64(wraps);
  w.WriteI64(count);
  BinaryReader r(w.data().data(), w.size());
  PHOTON_CHECK((*fn)->Deserialize(&r, state).ok());
  ColumnVector out((*fn)->result_type(), 1);
  (*fn)->Finalize(state, &out, 0);
  return out.GetValue(0);
}

TEST(AggFunctionTest, DecimalFinalizeMatchesBigDecimalBitForBit) {
  const int128_t max38 = Decimal128::MaxValueForPrecision(38);
  const int128_t i128_max = static_cast<int128_t>(~uint128_t{0} >> 1);
  const int128_t i128_min = -i128_max - 1;
  struct State {
    int128_t sum;
    int64_t wraps;
    int64_t count;
  };
  std::vector<State> states = {
      // Exact .5 ties at every avg shift used below (4, 2, 0), both signs.
      {1, 0, 20000}, {-1, 0, 20000}, {3, 0, 20000}, {-3, 0, 20000},
      {1, 0, 200}, {-1, 0, 200}, {5, 0, 2}, {-5, 0, 2}, {7, 0, 14},
      // Just below and above a tie.
      {9999, 0, 20000000}, {-10001, 0, 20000000},
      // count = 1, zero, negatives.
      {5, 0, 1}, {-5, 0, 1}, {0, 0, 1}, {0, 0, 7}, {-42, 0, 1},
      // Sums at and beyond +-(10^38 - 1), and the int128 extremes.
      {max38, 0, 1}, {-max38, 0, 1}, {max38 + 1, 0, 1}, {-max38 - 1, 0, 1},
      {i128_max, 0, 1}, {i128_min, 0, 1}, {i128_max, 0, 3}, {i128_min, 0, 3},
      // sum * 10^shift overflows int128 but the quotient fits.
      {max38, 0, 10000}, {-max38, 0, 123456789}, {i128_max, 0, 1000000},
      // Wrapped sums.
      {123, 1, 5}, {-123, -1, 5}, {i128_max, 2, 7}, {1, -1, 1},
      {i128_min, 1, 1}, {0, 1, 1000000000}};
  Rng rng(29);
  for (int i = 0; i < 3000; i++) {
    const int bits = static_cast<int>(rng.Uniform(0, 127));
    uint128_t mag = (static_cast<uint128_t>(rng.Next()) << 64) | rng.Next();
    mag = bits == 0 ? 0 : mag >> (128 - bits);
    int128_t sum = static_cast<int128_t>(mag);
    if (rng.Uniform(0, 1) == 1) sum = -sum;
    int64_t count = std::max<int64_t>(
        1, static_cast<int64_t>(rng.Next() >> rng.Uniform(1, 63)));
    int64_t wraps = rng.Uniform(0, 9) == 0 ? rng.Uniform(-3, 3) : 0;
    states.push_back({sum, wraps, count});
  }
  // Arg types with avg shifts 4, 4, 2 and 0 (avg scale caps at 38).
  for (const DataType& arg :
       {DataType::Decimal(12, 2), DataType::Decimal(38, 0),
        DataType::Decimal(38, 36), DataType::Decimal(38, 38)}) {
    for (AggKind kind : {AggKind::kSum, AggKind::kAvg}) {
      const bool is_avg = kind == AggKind::kAvg;
      Result<DataType> result = AggResultType(kind, arg);
      ASSERT_TRUE(result.ok());
      for (const State& st : states) {
        std::optional<int128_t> want =
            BigDecimalFinalize(st.sum, st.wraps, st.count, is_avg,
                               arg.scale(), result->scale());
        Value got =
            FinalizeDecimalState(kind, arg, st.sum, st.wraps, st.count);
        SCOPED_TRACE(arg.ToString() + (is_avg ? " avg" : " sum") +
                     " sum=" + Decimal128(st.sum).ToString(0) +
                     " wraps=" + std::to_string(st.wraps) +
                     " count=" + std::to_string(st.count));
        if (!want.has_value()) {
          EXPECT_TRUE(got.is_null());
        } else {
          ASSERT_FALSE(got.is_null());
          EXPECT_TRUE(got.decimal().value() == *want);
        }
      }
    }
  }
}

TEST(AggFunctionTest, AvgInt32IsDouble) {
  AggHarness h(AggKind::kAvg, DataType::Int32());
  h.Update({Value::Int32(1), Value::Int32(2)});
  EXPECT_EQ(h.Finalize(), Value::Float64(1.5));
}

TEST(AggFunctionTest, MinMaxStrings) {
  AggHarness lo(AggKind::kMin, DataType::String());
  AggHarness hi(AggKind::kMax, DataType::String());
  std::vector<Value> vals = {Value::String("pear"), Value::Null(),
                             Value::String("apple"), Value::String("plum")};
  lo.Update(vals);
  hi.Update(vals);
  EXPECT_EQ(lo.Finalize(), Value::String("apple"));
  EXPECT_EQ(hi.Finalize(), Value::String("plum"));
  EXPECT_EQ(lo.RoundTripAndFinalize(), Value::String("apple"));
  EXPECT_EQ(hi.RoundTripAndFinalize(), Value::String("plum"));
}

TEST(AggFunctionTest, MinMaxDates) {
  AggHarness lo(AggKind::kMin, DataType::Date32());
  lo.Update({Value::Date32(100), Value::Date32(-5), Value::Date32(50)});
  EXPECT_EQ(lo.Finalize(), Value::Date32(-5));
}

TEST(AggFunctionTest, CollectListPreservesOrderAndSkipsNulls) {
  AggHarness h(AggKind::kCollectList, DataType::String());
  h.Update({Value::String("a"), Value::Null(), Value::String("b")});
  h.Update({Value::String("c")});
  EXPECT_EQ(h.Finalize(), Value::String("[a, b, c]"));
  EXPECT_EQ(h.RoundTripAndFinalize(), Value::String("[a, b, c]"));
}

TEST(AggFunctionTest, CollectListEmpty) {
  AggHarness h(AggKind::kCollectList, DataType::String());
  EXPECT_EQ(h.Finalize(), Value::String("[]"));
}

TEST(AggFunctionTest, ResultTypes) {
  auto rt = [](AggKind k, DataType t) {
    Result<DataType> r = AggResultType(k, t);
    PHOTON_CHECK(r.ok());
    return *r;
  };
  EXPECT_EQ(rt(AggKind::kSum, DataType::Int32()), DataType::Int64());
  EXPECT_EQ(rt(AggKind::kSum, DataType::Float64()), DataType::Float64());
  EXPECT_EQ(rt(AggKind::kSum, DataType::Decimal(12, 2)),
            DataType::Decimal(22, 2));
  EXPECT_EQ(rt(AggKind::kSum, DataType::Decimal(35, 2)),
            DataType::Decimal(38, 2));
  EXPECT_EQ(rt(AggKind::kAvg, DataType::Int64()), DataType::Float64());
  EXPECT_EQ(rt(AggKind::kAvg, DataType::Decimal(12, 2)),
            DataType::Decimal(16, 6));
  EXPECT_EQ(rt(AggKind::kMin, DataType::String()), DataType::String());
  EXPECT_EQ(rt(AggKind::kCount, DataType::String()), DataType::Int64());
  EXPECT_FALSE(AggResultType(AggKind::kSum, DataType::String()).ok());
  EXPECT_FALSE(AggResultType(AggKind::kCollectList, DataType::Int32()).ok());
}

/// Property: sum/count/min/max agree with a scalar fold on random input,
/// including through the serialize-merge path.
TEST(AggFunctionTest, RandomizedAgainstFold) {
  Rng rng(12);
  for (int trial = 0; trial < 30; trial++) {
    std::vector<Value> values;
    int64_t sum = 0, count = 0;
    int64_t lo = INT64_MAX, hi = INT64_MIN;
    int n = static_cast<int>(rng.Uniform(0, 200));
    for (int i = 0; i < n; i++) {
      if (rng.NextBool(0.2)) {
        values.push_back(Value::Null());
        continue;
      }
      int64_t v = rng.Uniform(-1000, 1000);
      values.push_back(Value::Int64(v));
      sum += v;
      count++;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    AggHarness hs(AggKind::kSum, DataType::Int64());
    AggHarness hc(AggKind::kCount, DataType::Int64());
    AggHarness hmin(AggKind::kMin, DataType::Int64());
    AggHarness hmax(AggKind::kMax, DataType::Int64());
    hs.Update(values);
    hc.Update(values);
    hmin.Update(values);
    hmax.Update(values);
    EXPECT_EQ(hc.Finalize(), Value::Int64(count));
    if (count == 0) {
      EXPECT_TRUE(hs.Finalize().is_null());
      EXPECT_TRUE(hmin.Finalize().is_null());
    } else {
      EXPECT_EQ(hs.RoundTripAndFinalize(), Value::Int64(sum));
      EXPECT_EQ(hmin.Finalize(), Value::Int64(lo));
      EXPECT_EQ(hmax.RoundTripAndFinalize(), Value::Int64(hi));
    }
  }
}

}  // namespace
}  // namespace photon

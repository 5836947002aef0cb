#include <gtest/gtest.h>

#include "common/rng.h"
#include "vector/column_batch.h"
#include "vector/table.h"
#include "vector/vector_serde.h"

namespace photon {
namespace {

Schema TestSchema() {
  return Schema({Field("i", DataType::Int32()),
                 Field("s", DataType::String()),
                 Field("d", DataType::Float64())});
}

TEST(ColumnVectorTest, NullBytes) {
  ColumnVector v(DataType::Int32(), 8);
  EXPECT_FALSE(v.IsNull(0));
  v.SetNull(3);
  EXPECT_TRUE(v.IsNull(3));
  EXPECT_EQ(v.has_nulls(), TriState::kYes);
  v.SetNotNull(3);
  EXPECT_FALSE(v.IsNull(3));
}

TEST(ColumnVectorTest, ComputeHasNullsCachesResult) {
  ColumnVector v(DataType::Int32(), 8);
  for (int i = 0; i < 8; i++) v.data<int32_t>()[i] = i;
  EXPECT_FALSE(v.ComputeHasNulls(nullptr, 8, true));
  EXPECT_EQ(v.has_nulls(), TriState::kNo);
  // Cached: direct null write without metadata invalidation is not seen
  // (producers must reset metadata when mutating).
  v.nulls()[2] = 1;
  EXPECT_FALSE(v.ComputeHasNulls(nullptr, 8, true));
  v.ResetMetadata();
  EXPECT_TRUE(v.ComputeHasNulls(nullptr, 8, true));
}

TEST(ColumnVectorTest, ComputeHasNullsRespectsPositionList) {
  ColumnVector v(DataType::Int32(), 8);
  v.nulls()[5] = 1;
  int32_t pos[] = {0, 1, 2};
  EXPECT_FALSE(v.ComputeHasNulls(pos, 3, false));
  v.ResetMetadata();
  int32_t pos2[] = {0, 5};
  EXPECT_TRUE(v.ComputeHasNulls(pos2, 2, false));
}

TEST(ColumnVectorTest, AsciiMetadata) {
  ColumnVector v(DataType::String(), 4);
  v.SetString(0, "hello");
  v.SetString(1, "world");
  EXPECT_TRUE(v.ComputeAllAscii(nullptr, 2, true));
  v.ResetMetadata();
  v.SetString(2, "h\xC3\xA9llo");  // é
  EXPECT_FALSE(v.ComputeAllAscii(nullptr, 3, true));
}

TEST(ColumnBatchTest, PositionListFiltering) {
  ColumnBatch batch(TestSchema(), 8);
  for (int i = 0; i < 8; i++) {
    batch.column(0)->data<int32_t>()[i] = i;
    batch.column(1)->SetString(i, "row" + std::to_string(i));
    batch.column(2)->data<double>()[i] = i * 1.5;
  }
  batch.set_num_rows(8);
  batch.SetAllActive();
  EXPECT_EQ(batch.num_active(), 8);
  EXPECT_TRUE(batch.all_active());

  int32_t* pos = batch.mutable_pos_list();
  pos[0] = 1;
  pos[1] = 4;
  pos[2] = 7;
  batch.SetActiveRows(3);
  EXPECT_EQ(batch.num_active(), 3);
  EXPECT_EQ(batch.ActiveRow(0), 1);
  EXPECT_EQ(batch.ActiveRow(2), 7);
  EXPECT_DOUBLE_EQ(batch.Sparsity(), 3.0 / 8.0);
}

TEST(ColumnBatchTest, CompactBatchPreservesActiveRowsOnly) {
  ColumnBatch batch(TestSchema(), 8);
  for (int i = 0; i < 8; i++) {
    batch.column(0)->data<int32_t>()[i] = i * 10;
    batch.column(1)->SetString(i, "v" + std::to_string(i));
    batch.column(2)->data<double>()[i] = i;
  }
  batch.column(0)->SetNull(4);
  batch.set_num_rows(8);
  int32_t* pos = batch.mutable_pos_list();
  pos[0] = 2;
  pos[1] = 4;
  pos[2] = 6;
  batch.SetActiveRows(3);

  std::unique_ptr<ColumnBatch> dense = CompactBatch(batch);
  EXPECT_EQ(dense->num_rows(), 3);
  EXPECT_TRUE(dense->all_active());
  EXPECT_EQ(dense->column(0)->data<int32_t>()[0], 20);
  EXPECT_TRUE(dense->column(0)->IsNull(1));
  EXPECT_EQ(dense->column(0)->data<int32_t>()[2], 60);
  EXPECT_EQ(dense->column(1)->GetString(0).ToString(), "v2");
  EXPECT_EQ(dense->column(1)->GetString(2).ToString(), "v6");
}

TEST(TableBuilderTest, BuildsBatches) {
  TableBuilder builder(TestSchema(), /*batch_size=*/4);
  for (int i = 0; i < 10; i++) {
    builder.AppendRow({Value::Int32(i), Value::String("s" + std::to_string(i)),
                       i % 3 == 0 ? Value::Null() : Value::Float64(i * 0.5)});
  }
  Table t = builder.Finish();
  EXPECT_EQ(t.num_rows(), 10);
  EXPECT_EQ(t.num_batches(), 3);  // 4 + 4 + 2
  std::vector<Value> row = t.GetRow(5);
  EXPECT_EQ(row[0], Value::Int32(5));
  EXPECT_EQ(row[1], Value::String("s5"));
  row = t.GetRow(6);
  EXPECT_TRUE(row[2].is_null());
}

// --- Serde -----------------------------------------------------------------

TEST(SerdeTest, RoundTripAllTypes) {
  Schema schema({Field("b", DataType::Boolean()),
                 Field("i32", DataType::Int32()),
                 Field("i64", DataType::Int64()),
                 Field("f", DataType::Float64()),
                 Field("s", DataType::String()),
                 Field("dec", DataType::Decimal(12, 2)),
                 Field("d", DataType::Date32())});
  TableBuilder builder(schema, 16);
  Rng rng(7);
  for (int i = 0; i < 16; i++) {
    Decimal128 dec;
    Decimal128::FromString(std::to_string(i) + ".25", 2, &dec);
    builder.AppendRow(
        {i % 4 == 0 ? Value::Null() : Value::Boolean(i % 2 == 0),
         Value::Int32(i * 7), Value::Int64(i * 1000000007LL),
         Value::Float64(i * 0.125), Value::String(rng.NextAsciiString(i)),
         Value::Decimal(dec), Value::Date32(19000 + i)});
  }
  Table t = builder.Finish();

  BinaryWriter writer;
  SerializeBatch(t.batch(0), {}, &writer);
  BinaryReader reader(writer.data().data(), writer.size());
  Result<std::unique_ptr<ColumnBatch>> result =
      DeserializeBatch(schema, &reader);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ColumnBatch& round = **result;
  ASSERT_EQ(round.num_rows(), 16);
  for (int i = 0; i < 16; i++) {
    for (int c = 0; c < schema.num_fields(); c++) {
      EXPECT_TRUE(t.batch(0).column(c)->GetValue(i).Equals(
          round.column(c)->GetValue(i)))
          << "row " << i << " col " << c;
    }
  }
}

TEST(SerdeTest, SerializesOnlyActiveRows) {
  Schema schema({Field("i", DataType::Int32())});
  ColumnBatch batch(schema, 8);
  for (int i = 0; i < 8; i++) batch.column(0)->data<int32_t>()[i] = i;
  batch.set_num_rows(8);
  int32_t* pos = batch.mutable_pos_list();
  pos[0] = 1;
  pos[1] = 6;
  batch.SetActiveRows(2);

  BinaryWriter writer;
  SerializeBatch(batch, {}, &writer);
  BinaryReader reader(writer.data().data(), writer.size());
  auto result = DeserializeBatch(schema, &reader);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->num_rows(), 2);
  EXPECT_EQ((*result)->column(0)->data<int32_t>()[0], 1);
  EXPECT_EQ((*result)->column(0)->data<int32_t>()[1], 6);
}

TEST(SerdeTest, UuidDetectionAndRoundTrip) {
  Schema schema({Field("u", DataType::String())});
  ColumnBatch batch(schema, 4);
  batch.column(0)->SetString(0, "123e4567-e89b-12d3-a456-426614174000");
  batch.column(0)->SetString(1, "00000000-0000-0000-0000-000000000000");
  batch.column(0)->SetNull(2);
  batch.column(0)->SetString(3, "FFFFFFFF-FFFF-FFFF-FFFF-FFFFFFFFFFFF");
  batch.set_num_rows(4);
  batch.SetAllActive();

  EXPECT_TRUE(DetectUuidColumn(batch, 0));
  std::vector<ColumnEncoding> encodings = ChooseAdaptiveEncodings(batch);
  EXPECT_EQ(encodings[0], ColumnEncoding::kUuid128);

  BinaryWriter writer;
  SerializeBatch(batch, encodings, &writer);
  BinaryReader reader(writer.data().data(), writer.size());
  auto result = DeserializeBatch(schema, &reader);
  ASSERT_TRUE(result.ok());
  // UUIDs come back canonicalized to lowercase.
  EXPECT_EQ((*result)->column(0)->GetString(0).ToString(),
            "123e4567-e89b-12d3-a456-426614174000");
  EXPECT_TRUE((*result)->column(0)->IsNull(2));
  EXPECT_EQ((*result)->column(0)->GetString(3).ToString(),
            "ffffffff-ffff-ffff-ffff-ffffffffffff");
}

TEST(SerdeTest, UuidEncodingShrinksData) {
  Schema schema({Field("u", DataType::String())});
  ColumnBatch batch(schema, 1024);
  Rng rng(3);
  for (int i = 0; i < 1024; i++) {
    uint8_t bin[16];
    for (int b = 0; b < 16; b++) bin[b] = static_cast<uint8_t>(rng.Next());
    char text[36];
    FormatUuid(bin, text);
    batch.column(0)->SetString(i, text, 36);
  }
  batch.set_num_rows(1024);
  batch.SetAllActive();

  BinaryWriter plain, adaptive;
  SerializeBatch(batch, {}, &plain);
  SerializeBatch(batch, ChooseAdaptiveEncodings(batch), &adaptive);
  // 36+1 bytes/row plain vs 16 bytes/row encoded: expect > 2x reduction.
  EXPECT_LT(adaptive.size() * 2, plain.size());
}

TEST(SerdeTest, IntStringEncoding) {
  Schema schema({Field("n", DataType::String())});
  ColumnBatch batch(schema, 4);
  batch.column(0)->SetString(0, "12345");
  batch.column(0)->SetString(1, "-99");
  batch.column(0)->SetString(2, "0");
  batch.column(0)->SetString(3, "9223372036854775807");
  batch.set_num_rows(4);
  batch.SetAllActive();

  EXPECT_FALSE(DetectUuidColumn(batch, 0));
  EXPECT_TRUE(DetectIntStringColumn(batch, 0));
  std::vector<ColumnEncoding> encodings = ChooseAdaptiveEncodings(batch);
  EXPECT_EQ(encodings[0], ColumnEncoding::kIntString);

  BinaryWriter writer;
  SerializeBatch(batch, encodings, &writer);
  BinaryReader reader(writer.data().data(), writer.size());
  auto result = DeserializeBatch(schema, &reader);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->column(0)->GetString(0).ToString(), "12345");
  EXPECT_EQ((*result)->column(0)->GetString(1).ToString(), "-99");
  EXPECT_EQ((*result)->column(0)->GetString(3).ToString(),
            "9223372036854775807");
}

TEST(SerdeTest, NonUuidStringsStayPlain) {
  Schema schema({Field("s", DataType::String())});
  ColumnBatch batch(schema, 2);
  batch.column(0)->SetString(0, "123e4567-e89b-12d3-a456-426614174000");
  batch.column(0)->SetString(1, "not-a-uuid");
  batch.set_num_rows(2);
  batch.SetAllActive();
  EXPECT_FALSE(DetectUuidColumn(batch, 0));
  EXPECT_EQ(ChooseAdaptiveEncodings(batch)[0], ColumnEncoding::kPlain);
}

}  // namespace
}  // namespace photon

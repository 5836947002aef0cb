#include <gtest/gtest.h>

#include "common/rng.h"
#include "expr/builder.h"
#include "ops/file_scan.h"
#include "storage/baseline_file_writer.h"
#include "storage/bitpack.h"
#include "storage/delta.h"
#include "storage/format.h"

namespace photon {
namespace {

using eb::Col;
using eb::Lit;

// --- Bit packing -------------------------------------------------------------

class BitpackWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(BitpackWidthTest, RoundTripAndSlowEquivalence) {
  int bit_width = GetParam();
  Rng rng(bit_width);
  for (int n : {0, 1, 7, 64, 100, 1000}) {
    std::vector<uint32_t> values(n);
    uint64_t mask = bit_width == 32 ? 0xFFFFFFFFu
                                    : ((1u << bit_width) - 1);
    for (int i = 0; i < n; i++) {
      values[i] = static_cast<uint32_t>(rng.Next() & mask);
    }
    BinaryWriter fast, slow;
    BitPack(values.data(), n, bit_width, &fast);
    BitPackSlow(values.data(), n, bit_width, &slow);
    ASSERT_EQ(fast.data(), slow.data())
        << "fast/slow bytes differ at width " << bit_width << " n " << n;

    std::vector<uint32_t> out(n);
    BinaryReader reader(fast.data().data(), fast.size());
    ASSERT_TRUE(BitUnpack(&reader, n, bit_width, out.data()).ok());
    EXPECT_EQ(values, out);

    std::vector<uint32_t> out2(n);
    BinaryReader reader2(slow.data().data(), slow.size());
    ASSERT_TRUE(BitUnpackSlow(&reader2, n, bit_width, out2.data()).ok());
    EXPECT_EQ(values, out2);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, BitpackWidthTest,
                         ::testing::Values(1, 2, 3, 5, 7, 8, 11, 13, 16, 17,
                                           20, 24, 31, 32));

TEST(BitpackTest, BitWidthFor) {
  EXPECT_EQ(BitWidthFor(0), 1);
  EXPECT_EQ(BitWidthFor(1), 1);
  EXPECT_EQ(BitWidthFor(2), 2);
  EXPECT_EQ(BitWidthFor(255), 8);
  EXPECT_EQ(BitWidthFor(256), 9);
  EXPECT_EQ(BitWidthFor(65535), 16);
}

// --- File format -------------------------------------------------------------

Table MixedTable(int rows, uint64_t seed = 9) {
  Schema schema({Field("i", DataType::Int32()),
                 Field("l", DataType::Int64()),
                 Field("d", DataType::Date32()),
                 Field("t", DataType::Timestamp()),
                 Field("s", DataType::String()),
                 Field("b", DataType::Boolean()),
                 Field("f", DataType::Float64()),
                 Field("m", DataType::Decimal(12, 2))});
  TableBuilder builder(schema);
  Rng rng(seed);
  for (int i = 0; i < rows; i++) {
    builder.AppendRow(
        {i % 13 == 0 ? Value::Null() : Value::Int32(static_cast<int32_t>(
                                           rng.Uniform(-100, 100))),
         Value::Int64(rng.Uniform(0, 1LL << 40)),
         Value::Date32(static_cast<int32_t>(rng.Uniform(8000, 10000))),
         Value::Timestamp(rng.Uniform(0, 1LL << 48)),
         // Low-cardinality strings: exercises dictionary encoding.
         Value::String("city-" + std::to_string(rng.Uniform(0, 20))),
         Value::Boolean(rng.NextBool()),
         Value::Float64(rng.NextDouble() * 100),
         Value::Decimal(Decimal128::FromInt64(rng.Uniform(0, 100000)))});
  }
  return builder.Finish();
}

TEST(FileFormatTest, WriteReadRoundTrip) {
  Table t = MixedTable(5000);
  FormatWriteOptions options;
  options.row_group_rows = 1500;  // multiple row groups
  FileWriter writer(t.schema(), options);
  for (int b = 0; b < t.num_batches(); b++) {
    ASSERT_TRUE(writer.WriteBatch(t.batch(b)).ok());
  }
  Result<std::string> bytes = writer.Finish();
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_GT(writer.stats().dictionary_chunks, 0);  // "s" should dict-encode

  Result<std::unique_ptr<FileReader>> reader = FileReader::Open(*bytes);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->meta().num_rows(), 5000);
  EXPECT_EQ((*reader)->num_row_groups(), 4);  // ceil(5000/1500)

  auto original = t.ToRows();
  int64_t row = 0;
  for (int rg = 0; rg < (*reader)->num_row_groups(); rg++) {
    Result<std::unique_ptr<ColumnBatch>> batch =
        (*reader)->ReadRowGroup(rg, {});
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    for (int i = 0; i < (*batch)->num_rows(); i++, row++) {
      for (int c = 0; c < t.schema().num_fields(); c++) {
        EXPECT_TRUE(
            (*batch)->column(c)->GetValue(i).Equals(original[row][c]))
            << "row " << row << " col " << c;
      }
    }
  }
  EXPECT_EQ(row, 5000);
}

TEST(FileFormatTest, BaselineWriterProducesReadableFiles) {
  Table t = MixedTable(3000, 123);
  FormatWriteOptions options;
  options.row_group_rows = 1024;
  BaselineFileWriter writer(t.schema(), options);
  for (const auto& row : t.ToRows()) {
    ASSERT_TRUE(writer.WriteRow(row).ok());
  }
  Result<std::string> bytes = writer.Finish();
  ASSERT_TRUE(bytes.ok());

  Result<std::unique_ptr<FileReader>> reader = FileReader::Open(*bytes);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto original = t.ToRows();
  int64_t row = 0;
  for (int rg = 0; rg < (*reader)->num_row_groups(); rg++) {
    auto batch = (*reader)->ReadRowGroup(rg, {});
    ASSERT_TRUE(batch.ok());
    for (int i = 0; i < (*batch)->num_rows(); i++, row++) {
      for (int c = 0; c < t.schema().num_fields(); c++) {
        EXPECT_TRUE(
            (*batch)->column(c)->GetValue(i).Equals(original[row][c]))
            << "row " << row << " col " << c;
      }
    }
  }
  EXPECT_EQ(row, 3000);
}

TEST(FileFormatTest, PhotonAndBaselineWritersAgreeOnStats) {
  Table t = MixedTable(2000, 55);
  FileWriter fast(t.schema());
  for (int b = 0; b < t.num_batches(); b++) {
    ASSERT_TRUE(fast.WriteBatch(t.batch(b)).ok());
  }
  ASSERT_TRUE(fast.Finish().ok());
  BaselineFileWriter slow(t.schema());
  for (const auto& row : t.ToRows()) {
    ASSERT_TRUE(slow.WriteRow(row).ok());
  }
  ASSERT_TRUE(slow.Finish().ok());

  ASSERT_EQ(fast.meta().row_groups.size(), slow.meta().row_groups.size());
  for (size_t rg = 0; rg < fast.meta().row_groups.size(); rg++) {
    for (int c = 0; c < t.schema().num_fields(); c++) {
      const ColumnChunkMeta& a = fast.meta().row_groups[rg].columns[c];
      const ColumnChunkMeta& b = slow.meta().row_groups[rg].columns[c];
      EXPECT_EQ(a.null_count, b.null_count) << c;
      EXPECT_EQ(a.has_min_max, b.has_min_max) << c;
      if (a.has_min_max) {
        EXPECT_TRUE(a.min.Equals(b.min)) << "col " << c;
        EXPECT_TRUE(a.max.Equals(b.max)) << "col " << c;
      }
    }
  }
}

TEST(FileFormatTest, ColumnProjection) {
  Table t = MixedTable(1000);
  Result<FileMeta> meta = WriteTableToStore(t, &ObjectStore::Default(),
                                            "test-fmt/proj.pho");
  ASSERT_TRUE(meta.ok());
  Result<std::unique_ptr<FileReader>> reader =
      FileReader::OpenFromStore(&ObjectStore::Default(), "test-fmt/proj.pho");
  ASSERT_TRUE(reader.ok());
  auto batch = (*reader)->ReadRowGroup(0, {4, 0});  // s, i
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ((*batch)->num_columns(), 2);
  EXPECT_EQ((*batch)->schema().field(0).name, "s");
  EXPECT_EQ((*batch)->schema().field(1).name, "i");
  ObjectStore::Default().DeletePrefix("test-fmt/");
}

TEST(FileFormatTest, RejectsCorruptFiles) {
  EXPECT_FALSE(FileReader::Open("garbage").ok());
  Table t = MixedTable(100);
  FileWriter writer(t.schema());
  ASSERT_TRUE(writer.WriteBatch(t.batch(0)).ok());
  Result<std::string> bytes = writer.Finish();
  ASSERT_TRUE(bytes.ok());
  std::string corrupt = *bytes;
  corrupt.resize(corrupt.size() / 2);
  EXPECT_FALSE(FileReader::Open(corrupt).ok());
}

// --- Delta -------------------------------------------------------------------

Table SmallTable(int lo, int hi) {
  Schema schema({Field("id", DataType::Int64()),
                 Field("v", DataType::String())});
  TableBuilder builder(schema);
  for (int i = lo; i < hi; i++) {
    builder.AppendRow({Value::Int64(i), Value::String("v" + std::to_string(i))});
  }
  return builder.Finish();
}

TEST(DeltaTest, CreateAppendSnapshot) {
  ObjectStore store;
  Schema schema({Field("id", DataType::Int64()),
                 Field("v", DataType::String())});
  auto table = DeltaTable::Create(&store, "tables/t1", schema);
  ASSERT_TRUE(table.ok()) << table.status().ToString();

  Result<int64_t> v1 = (*table)->Append(SmallTable(0, 100));
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, 1);
  Result<int64_t> v2 = (*table)->Append(SmallTable(100, 250));
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 2);

  Result<DeltaSnapshot> snap = (*table)->Snapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->version, 2);
  EXPECT_EQ(snap->files.size(), 2u);
  EXPECT_EQ(snap->num_rows(), 250);

  // Time travel: version 1 sees only the first file.
  Result<DeltaSnapshot> old = (*table)->Snapshot(1);
  ASSERT_TRUE(old.ok());
  EXPECT_EQ(old->files.size(), 1u);
  EXPECT_EQ(old->num_rows(), 100);

  // Creating over an existing table fails.
  EXPECT_FALSE(DeltaTable::Create(&store, "tables/t1", schema).ok());
  // Opening works.
  EXPECT_TRUE(DeltaTable::Open(&store, "tables/t1").ok());
  EXPECT_FALSE(DeltaTable::Open(&store, "tables/none").ok());
}

TEST(DeltaTest, RewriteRemovesFiles) {
  ObjectStore store;
  Schema schema({Field("id", DataType::Int64()),
                 Field("v", DataType::String())});
  auto table = DeltaTable::Create(&store, "tables/t2", schema);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Append(SmallTable(0, 50)).ok());
  Result<DeltaSnapshot> snap = (*table)->Snapshot();
  ASSERT_TRUE(snap.ok());
  std::string old_key = snap->files[0].key;

  ASSERT_TRUE((*table)->Rewrite({old_key}, SmallTable(0, 80)).ok());
  snap = (*table)->Snapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->files.size(), 1u);
  EXPECT_NE(snap->files[0].key, old_key);
  EXPECT_EQ(snap->num_rows(), 80);
}

TEST(DeltaTest, DataSkippingPrunesFiles) {
  ObjectStore store;
  Schema schema({Field("id", DataType::Int64()),
                 Field("v", DataType::String())});
  auto table = DeltaTable::Create(&store, "tables/t3", schema);
  ASSERT_TRUE(table.ok());
  // Three files with disjoint id ranges (well-clustered data).
  ASSERT_TRUE((*table)->Append(SmallTable(0, 100)).ok());
  ASSERT_TRUE((*table)->Append(SmallTable(100, 200)).ok());
  ASSERT_TRUE((*table)->Append(SmallTable(200, 300)).ok());
  Result<DeltaSnapshot> snap = (*table)->Snapshot();
  ASSERT_TRUE(snap.ok());

  ExprPtr pred = eb::Eq(Col(0, DataType::Int64(), "id"),
                        eb::Lit(int64_t{150}));
  std::vector<DeltaFileEntry> pruned = DeltaTable::PruneFiles(*snap, pred);
  ASSERT_EQ(pruned.size(), 1u);  // only the middle file can match

  pred = eb::Gt(Col(0, DataType::Int64(), "id"), eb::Lit(int64_t{150}));
  pruned = DeltaTable::PruneFiles(*snap, pred);
  EXPECT_EQ(pruned.size(), 2u);

  // AND of conjuncts prunes with both.
  pred = eb::And(eb::Gt(Col(0, DataType::Int64(), "id"),
                        eb::Lit(int64_t{110})),
                 eb::Lt(Col(0, DataType::Int64(), "id"),
                        eb::Lit(int64_t{190})));
  pruned = DeltaTable::PruneFiles(*snap, pred);
  EXPECT_EQ(pruned.size(), 1u);

  // Unprunable predicate keeps everything.
  pred = eb::Like(Col(1, DataType::String(), "v"), "v1%");
  pruned = DeltaTable::PruneFiles(*snap, pred);
  EXPECT_EQ(pruned.size(), 3u);

  // A literal-only operand is folded: SQL types `id BETWEEN 120 AND 130`
  // with int32 literals cast to the int64 column.
  pred = eb::Between(Col(0, DataType::Int64(), "id"),
                     eb::Cast(eb::Lit(int32_t{120}), DataType::Int64()),
                     eb::Cast(eb::Lit(int32_t{130}), DataType::Int64()));
  pruned = DeltaTable::PruneFiles(*snap, pred);
  ASSERT_EQ(pruned.size(), 1u);
  EXPECT_EQ(pruned[0].key, snap->files[1].key);

  // Over a projection (v, id): the predicate's column 1 is the file's
  // `id`; the folded constant may also sit on the left.
  pred = eb::Lt(eb::Cast(eb::Lit(int32_t{100}), DataType::Int64()),
                Col(1, DataType::Int64(), "id"));
  pruned = DeltaTable::PruneFiles(*snap, pred, /*columns=*/{1, 0});
  EXPECT_EQ(pruned.size(), 2u);
}

TEST(DeltaTest, DataSkippingComparesDecimalsAtTheColumnScale) {
  // A decimal(10,2) chunk holding 1.00..2.00: stats are unscaled 100..200.
  ColumnChunkMeta chunk;
  chunk.has_min_max = true;
  chunk.min = Value::Decimal(Decimal128::FromInt64(100));
  chunk.max = Value::Decimal(Decimal128::FromInt64(200));
  ExprPtr d = Col(0, DataType::Decimal(10, 2), "d");
  // 5.0 at scale 1 is unscaled 50; compared raw it would prove d < 5.0
  // false and prune a chunk whose every row matches.
  EXPECT_TRUE(StatsMayMatch(*eb::Lt(d, eb::DecimalLit("5.0", 2, 1)), {chunk}));
  EXPECT_FALSE(
      StatsMayMatch(*eb::Lt(d, eb::DecimalLit("0.50", 10, 2)), {chunk}));
}

TEST(DeltaScanTest, EndToEndWithSkipping) {
  ObjectStore store;
  Schema schema({Field("id", DataType::Int64()),
                 Field("v", DataType::String())});
  auto table = DeltaTable::Create(&store, "tables/t4", schema);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Append(SmallTable(0, 1000)).ok());
  ASSERT_TRUE((*table)->Append(SmallTable(1000, 2000)).ok());
  Result<DeltaSnapshot> snap = (*table)->Snapshot();
  ASSERT_TRUE(snap.ok());

  ExprPtr pred = eb::Between(Col(0, DataType::Int64(), "id"),
                             eb::Lit(int64_t{1500}), eb::Lit(int64_t{1509}));
  auto scan = std::make_unique<DeltaScanOperator>(&store, *snap,
                                                  std::vector<int>{}, pred);
  Result<Table> result = CollectAll(scan.get());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 10);
  EXPECT_EQ(result->GetRow(0)[0], Value::Int64(1500));
}

TEST(DeltaScanTest, SurfacesInjectedWriteFailures) {
  ObjectStore store;
  Schema schema({Field("id", DataType::Int64()),
                 Field("v", DataType::String())});
  auto table = DeltaTable::Create(&store, "tables/t5", schema);
  ASSERT_TRUE(table.ok());
  store.FailNextPuts(1);
  Status st = (*table)->Append(SmallTable(0, 10)).status();
  EXPECT_TRUE(st.IsIoError());
  // Failed append must not appear in the snapshot.
  Result<DeltaSnapshot> snap = (*table)->Snapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->files.size(), 0u);
}

}  // namespace
}  // namespace photon

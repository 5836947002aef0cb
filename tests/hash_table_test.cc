#include "ht/vectorized_hash_table.h"

#include <gtest/gtest.h>

#include <set>

#include <unordered_map>

#include "common/rng.h"

namespace photon {
namespace {

/// Builds a single-column int64 batch.
std::unique_ptr<ColumnBatch> IntBatch(const std::vector<int64_t>& values,
                                      const std::vector<int>& null_rows = {}) {
  Schema schema({Field("k", DataType::Int64())});
  auto batch = std::make_unique<ColumnBatch>(
      schema, std::max<int>(static_cast<int>(values.size()), 1));
  for (size_t i = 0; i < values.size(); i++) {
    batch->column(0)->data<int64_t>()[i] = values[i];
  }
  for (int r : null_rows) batch->column(0)->SetNull(r);
  batch->set_num_rows(static_cast<int>(values.size()));
  batch->SetAllActive();
  return batch;
}

TEST(VectorizedHashTableTest, LookupOrInsertGroups) {
  VectorizedHashTable ht({DataType::Int64()}, 8, /*match_null_keys=*/true);
  auto batch = IntBatch({1, 2, 1, 3, 2, 1});
  std::vector<const ColumnVector*> keys = {batch->column(0)};
  std::vector<uint64_t> hashes(6);
  VectorizedHashTable::HashKeys(keys, *batch, hashes.data());
  std::vector<uint8_t*> entries(6);
  auto inserted = std::make_unique<bool[]>(6);
  ASSERT_TRUE(ht.LookupOrInsert(keys, *batch, hashes.data(), entries.data(),
                                inserted.get())
                  .ok());
  EXPECT_EQ(ht.num_entries(), 3);
  EXPECT_TRUE(inserted[0]);
  EXPECT_TRUE(inserted[1]);
  EXPECT_FALSE(inserted[2]);
  EXPECT_EQ(entries[0], entries[2]);
  EXPECT_EQ(entries[0], entries[5]);
  EXPECT_EQ(entries[1], entries[4]);
  EXPECT_NE(entries[0], entries[3]);
}

TEST(VectorizedHashTableTest, NullKeysGroupTogetherUnderGroupSemantics) {
  VectorizedHashTable ht({DataType::Int64()}, 8, /*match_null_keys=*/true);
  auto batch = IntBatch({0, 0, 5}, /*null_rows=*/{0, 1});
  std::vector<const ColumnVector*> keys = {batch->column(0)};
  std::vector<uint64_t> hashes(3);
  VectorizedHashTable::HashKeys(keys, *batch, hashes.data());
  std::vector<uint8_t*> entries(3);
  auto inserted = std::make_unique<bool[]>(3);
  ASSERT_TRUE(ht.LookupOrInsert(keys, *batch, hashes.data(), entries.data(),
                                inserted.get())
                  .ok());
  EXPECT_EQ(ht.num_entries(), 2);
  EXPECT_EQ(entries[0], entries[1]);  // NULL == NULL for GROUP BY
  EXPECT_TRUE(ht.KeyIsNull(entries[0], 0));
}

TEST(VectorizedHashTableTest, NullKeysNeverMatchUnderJoinSemantics) {
  VectorizedHashTable ht({DataType::Int64()}, 8, /*match_null_keys=*/false);
  auto batch = IntBatch({0, 7}, /*null_rows=*/{0});
  std::vector<const ColumnVector*> keys = {batch->column(0)};
  std::vector<uint64_t> hashes(2);
  VectorizedHashTable::HashKeys(keys, *batch, hashes.data());
  std::vector<uint8_t*> entries(2);
  auto inserted = std::make_unique<bool[]>(2);
  ASSERT_TRUE(ht.LookupOrInsert(keys, *batch, hashes.data(), entries.data(),
                                inserted.get())
                  .ok());
  EXPECT_EQ(entries[0], nullptr);  // NULL key row is skipped
  EXPECT_NE(entries[1], nullptr);
  EXPECT_EQ(ht.num_entries(), 1);

  // Lookup of a NULL key also misses.
  ht.Lookup(keys, *batch, hashes.data(), entries.data());
  EXPECT_EQ(entries[0], nullptr);
  EXPECT_NE(entries[1], nullptr);
}

TEST(VectorizedHashTableTest, CompositeAndStringKeys) {
  Schema schema({Field("k1", DataType::Int32()),
                 Field("k2", DataType::String())});
  ColumnBatch batch(schema, 4);
  batch.column(0)->data<int32_t>()[0] = 1;
  batch.column(1)->SetString(0, "alpha");
  batch.column(0)->data<int32_t>()[1] = 1;
  batch.column(1)->SetString(1, "beta");
  batch.column(0)->data<int32_t>()[2] = 2;
  batch.column(1)->SetString(2, "alpha");
  batch.column(0)->data<int32_t>()[3] = 1;
  batch.column(1)->SetString(3, "alpha");
  batch.set_num_rows(4);
  batch.SetAllActive();

  VectorizedHashTable ht({DataType::Int32(), DataType::String()}, 0, true);
  std::vector<const ColumnVector*> keys = {batch.column(0), batch.column(1)};
  std::vector<uint64_t> hashes(4);
  VectorizedHashTable::HashKeys(keys, batch, hashes.data());
  std::vector<uint8_t*> entries(4);
  auto inserted = std::make_unique<bool[]>(4);
  ASSERT_TRUE(ht.LookupOrInsert(keys, batch, hashes.data(), entries.data(),
                                inserted.get())
                  .ok());
  EXPECT_EQ(ht.num_entries(), 3);
  EXPECT_EQ(entries[0], entries[3]);
  EXPECT_NE(entries[0], entries[1]);
  EXPECT_NE(entries[0], entries[2]);
  EXPECT_EQ(ht.GetKeyValue(entries[1], 1), Value::String("beta"));
}

TEST(VectorizedHashTableTest, ChainedDuplicates) {
  VectorizedHashTable ht({DataType::Int64()}, 8, false);
  auto batch = IntBatch({42});
  std::vector<const ColumnVector*> keys = {batch->column(0)};
  uint64_t hash;
  VectorizedHashTable::HashKeys(keys, *batch, &hash);
  uint8_t* entry;
  bool inserted;
  ASSERT_TRUE(
      ht.LookupOrInsert(keys, *batch, &hash, &entry, &inserted).ok());
  ASSERT_TRUE(inserted);
  uint8_t* dup1 = ht.InsertChained(entry);
  uint8_t* dup2 = ht.InsertChained(entry);
  EXPECT_EQ(ht.num_entries(), 3);
  // Chain: entry -> dup2 -> dup1.
  EXPECT_EQ(VectorizedHashTable::next(entry), dup2);
  EXPECT_EQ(VectorizedHashTable::next(dup2), dup1);
  EXPECT_EQ(VectorizedHashTable::next(dup1), nullptr);
  // Chained entries carry the same key.
  EXPECT_EQ(ht.GetKeyValue(dup1, 0), Value::Int64(42));

  int count = 0;
  ht.ForEachEntryWithChains([&](uint8_t*) { count++; });
  EXPECT_EQ(count, 3);
  count = 0;
  ht.ForEachEntry([&](uint8_t*) { count++; });
  EXPECT_EQ(count, 1);
}

TEST(VectorizedHashTableTest, GrowPreservesEntries) {
  VectorizedHashTable ht({DataType::Int64()}, 8, true);
  constexpr int kN = 10000;
  std::vector<int64_t> values(kN);
  for (int i = 0; i < kN; i++) values[i] = i;
  auto batch = IntBatch(values);
  std::vector<const ColumnVector*> keys = {batch->column(0)};
  std::vector<uint64_t> hashes(kN);
  VectorizedHashTable::HashKeys(keys, *batch, hashes.data());
  std::vector<uint8_t*> entries(kN);
  auto inserted = std::make_unique<bool[]>(kN);
  ASSERT_TRUE(ht.LookupOrInsert(keys, *batch, hashes.data(), entries.data(),
                                inserted.get())
                  .ok());
  EXPECT_EQ(ht.num_entries(), kN);
  EXPECT_GT(ht.num_resizes(), 0);
  // All keys still found after growth; entry pointers were never moved.
  std::vector<uint8_t*> found(kN);
  ht.Lookup(keys, *batch, hashes.data(), found.data());
  for (int i = 0; i < kN; i++) {
    EXPECT_EQ(found[i], entries[i]) << "key " << i;
  }
}

// Property test: hash table agrees with std::unordered_map on a random
// mixed workload (group counting).
TEST(VectorizedHashTableTest, MatchesUnorderedMapOracle) {
  Rng rng(99);
  VectorizedHashTable ht({DataType::Int64()}, sizeof(int64_t), true);
  std::unordered_map<int64_t, int64_t> oracle;

  for (int round = 0; round < 50; round++) {
    constexpr int kBatch = 512;
    std::vector<int64_t> values(kBatch);
    for (int i = 0; i < kBatch; i++) {
      values[i] = rng.Uniform(0, 300);  // heavy duplication
    }
    auto batch = IntBatch(values);
    std::vector<const ColumnVector*> keys = {batch->column(0)};
    std::vector<uint64_t> hashes(kBatch);
    VectorizedHashTable::HashKeys(keys, *batch, hashes.data());
    std::vector<uint8_t*> entries(kBatch);
    auto inserted = std::make_unique<bool[]>(kBatch);
    ASSERT_TRUE(ht.LookupOrInsert(keys, *batch, hashes.data(),
                                  entries.data(), inserted.get())
                    .ok());
    for (int i = 0; i < kBatch; i++) {
      if (inserted[i]) {
        *reinterpret_cast<int64_t*>(ht.payload(entries[i])) = 0;
      }
      (*reinterpret_cast<int64_t*>(ht.payload(entries[i])))++;
      oracle[values[i]]++;
    }
  }

  EXPECT_EQ(ht.num_entries(), static_cast<int64_t>(oracle.size()));
  ht.ForEachEntry([&](uint8_t* entry) {
    Value key = ht.GetKeyValue(entry, 0);
    int64_t count = *reinterpret_cast<int64_t*>(ht.payload(entry));
    auto it = oracle.find(key.i64());
    ASSERT_NE(it, oracle.end());
    EXPECT_EQ(count, it->second) << "key " << key.i64();
  });
}

TEST(VectorizedHashTableTest, SparseBatchProbes) {
  // Probing with a position list only touches active rows.
  VectorizedHashTable ht({DataType::Int64()}, 0, false);
  auto build = IntBatch({10, 20, 30});
  std::vector<const ColumnVector*> bkeys = {build->column(0)};
  std::vector<uint64_t> bh(3);
  VectorizedHashTable::HashKeys(bkeys, *build, bh.data());
  std::vector<uint8_t*> be(3);
  auto bi = std::make_unique<bool[]>(3);
  ASSERT_TRUE(
      ht.LookupOrInsert(bkeys, *build, bh.data(), be.data(), bi.get()).ok());

  auto probe = IntBatch({10, 999, 30, 999});
  int32_t* pos = probe->mutable_pos_list();
  pos[0] = 0;
  pos[1] = 2;
  probe->SetActiveRows(2);
  std::vector<const ColumnVector*> pkeys = {probe->column(0)};
  std::vector<uint64_t> ph(2);
  VectorizedHashTable::HashKeys(pkeys, *probe, ph.data());
  std::vector<uint8_t*> pe(2);
  ht.Lookup(pkeys, *probe, ph.data(), pe.data());
  EXPECT_EQ(pe[0], be[0]);
  EXPECT_EQ(pe[1], be[2]);
}

/// Spill files, merge partitions and build partitions take a hash's high
/// bits, and buckets its low bits: the hashes of one partition must reach
/// every low-bit residue (a `hash % partitions` rule would pin the low
/// bits, so a reloaded partition could only start in every 16th bucket).
TEST(VectorizedHashTableTest, HashPartitionLeavesLowBitsSpread) {
  constexpr int kRows = 65536;
  Schema schema({Field("k", DataType::Int64())});
  ColumnBatch batch(schema, kRows);
  for (int i = 0; i < kRows; i++) {
    batch.column(0)->data<int64_t>()[i] = i;
    batch.column(0)->SetNotNull(i);
  }
  batch.set_num_rows(kRows);
  batch.SetAllActive();
  std::vector<uint64_t> hashes(kRows);
  VectorizedHashTable::HashKeys({batch.column(0)}, batch, hashes.data());

  constexpr int kLowBits = 8;
  for (int skip : {0, 3}) {
    std::vector<std::set<uint64_t>> residues(16);
    for (uint64_t h : hashes) {
      int p = VectorizedHashTable::HashPartition(h, 4, skip);
      ASSERT_GE(p, 0);
      ASSERT_LT(p, 16);
      residues[p].insert(h & ((uint64_t{1} << kLowBits) - 1));
      // Fewer bits refine coarser: 3-bit partitions are 4-bit ones >> 1.
      EXPECT_EQ(VectorizedHashTable::HashPartition(h, 3, skip), p >> 1);
    }
    for (int p = 0; p < 16; p++) {
      EXPECT_EQ(residues[p].size(), size_t{1} << kLowBits)
          << "partition " << p << " skip " << skip;
    }
  }
}

}  // namespace
}  // namespace photon

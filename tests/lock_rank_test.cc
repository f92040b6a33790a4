// Tests for the debug LockRank layer in common/mutex.h: ordered
// acquisition passes, inversion and same-rank nesting abort, and the real
// store → index mirror chain (the deepest sanctioned order in the service)
// runs clean. The death tests only exist where the checker is compiled in —
// under NDEBUG (Release, the TSAN job's RelWithDebInfo) they skip.

#include "common/mutex.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "index/banded_index.h"
#include "service/sketch_store.h"
#include "vector/sparse_vector.h"

namespace ipsketch {
namespace {

using lock_rank_internal::HeldDepthForTesting;

TEST(LockRankTest, IncreasingChainPasses) {
  Mutex registry(LockRank::kListenerRegistry);
  Mutex store_shard(LockRank::kStoreShard);
  Mutex index_shard(LockRank::kIndexShard);
  Mutex leaf(LockRank::kLeaf);
  {
    MutexLock a(&registry);
    MutexLock b(&store_shard);
    MutexLock c(&index_shard);
    MutexLock d(&leaf);
    if (kLockRankCheckEnabled) {
      EXPECT_EQ(HeldDepthForTesting(), 4u);
    }
  }
  EXPECT_EQ(HeldDepthForTesting(), 0u);
}

TEST(LockRankTest, ReacquireAfterReleasePasses) {
  // Dropping back to empty resets the ceiling: lower ranks are fine again.
  Mutex store_shard(LockRank::kStoreShard);
  Mutex index_shard(LockRank::kIndexShard);
  { MutexLock lock(&index_shard); }
  { MutexLock lock(&store_shard); }
  EXPECT_EQ(HeldDepthForTesting(), 0u);
}

TEST(LockRankDeathTest, InversionAborts) {
  if (!kLockRankCheckEnabled) {
    GTEST_SKIP() << "lock-rank checker compiled out under NDEBUG";
  }
  // The forbidden order: an index shard lock held while acquiring a store
  // shard lock — the mirror protocol's deadlock shape.
  Mutex index_shard(LockRank::kIndexShard);
  Mutex store_shard(LockRank::kStoreShard);
  MutexLock outer(&index_shard);
  EXPECT_DEATH(MutexLock inner(&store_shard), "lock rank violation");
}

TEST(LockRankDeathTest, SameRankNestingAborts) {
  if (!kLockRankCheckEnabled) {
    GTEST_SKIP() << "lock-rank checker compiled out under NDEBUG";
  }
  // Two locks of equal rank (two shards of one store, or shards of two
  // different stores) never nest: with no order between them, concurrent
  // threads could take them in opposite orders — ABBA.
  Mutex shard_a(LockRank::kStoreShard);
  Mutex shard_b(LockRank::kStoreShard);
  MutexLock outer(&shard_a);
  EXPECT_DEATH(MutexLock inner(&shard_b), "lock rank violation");
}

TEST(LockRankDeathTest, TryLockInWrongOrderAborts) {
  if (!kLockRankCheckEnabled) {
    GTEST_SKIP() << "lock-rank checker compiled out under NDEBUG";
  }
  // try_lock would not block here, but the order is the same latent
  // deadlock, so the checker treats it identically.
  Mutex leaf(LockRank::kLeaf);
  Mutex store_shard(LockRank::kStoreShard);
  MutexLock outer(&leaf);
  EXPECT_DEATH((void)store_shard.TryLock(), "lock rank violation");
}

// A deterministic sparse vector, same shape as the service tests use.
SparseVector TestVector(uint64_t seed) {
  std::vector<Entry> entries;
  for (uint64_t i = 0; i < 24; ++i) {
    const uint64_t index = (seed * 97 + i * 31) % 512;
    bool duplicate = false;
    for (const Entry& e : entries) duplicate |= (e.index == index);
    if (!duplicate) {
      entries.push_back({index, 1.0 + static_cast<double>((seed + i) % 7)});
    }
  }
  return SparseVector::MakeOrDie(512, std::move(entries));
}

SketchStoreOptions SmallStoreOptions() {
  SketchStoreOptions opts;
  opts.family = "wmh";
  opts.sketch.dimension = 512;
  opts.sketch.num_samples = 64;
  opts.sketch.seed = 42;
  opts.num_shards = 4;
  return opts;
}

TEST(LockRankTest, StoreToIndexMirrorChainPasses) {
  // The real deepest chain: AttachListener holds the listener registry
  // across each shard's replay (kListenerRegistry → kStoreShard →
  // kIndexShard), and every later mutation notifies the index under the
  // store shard lock (kStoreShard → kIndexShard). Under the debug checker
  // this test is the positive proof those orders are sanctioned.
  auto store = SketchStore::Make(SmallStoreOptions()).value();
  for (uint64_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(store.BuildAndInsert(i, TestVector(i)).ok());
  }
  BandedLshParams params;
  params.bands = 16;
  params.rows = 4;
  // Attach replays 16 resident entries through the full chain.
  auto index = BandedIndex::MakeAttached(&store, params);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index.value()->size(), 16u);
  // Mirrored insert, replace, and erase all run store-shard → index-shard.
  ASSERT_TRUE(store.BuildAndInsert(100, TestVector(100)).ok());
  ASSERT_TRUE(store.BuildAndInsert(100, TestVector(101)).ok());
  ASSERT_TRUE(store.Erase(3).ok());
  EXPECT_EQ(index.value()->size(), 16u);
  EXPECT_EQ(HeldDepthForTesting(), 0u);
}

TEST(LockRankTest, QuantizeStoreRegression) {
  // Regression for a genuine lock-order bug the rank checker surfaced:
  // QuantizeStore used to Insert into the destination store from inside a
  // scan holding the source's shard lock — two kStoreShard locks nested,
  // the cross-store ABBA shape (two concurrent QuantizeStore calls in
  // opposite directions could deadlock). It now reads pinned source views,
  // which take no lock; under the debug checker this test aborts if the
  // nesting ever comes back.
  auto source = SketchStore::Make(SmallStoreOptions()).value();
  for (uint64_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(source.BuildAndInsert(i, TestVector(i)).ok());
  }
  auto compact = QuantizeStore(source, "wmh_compact");
  ASSERT_TRUE(compact.ok()) << compact.status().ToString();
  EXPECT_EQ(compact.value().size(), 16u);
  EXPECT_EQ(compact.value().Ids(), source.Ids());
  EXPECT_EQ(HeldDepthForTesting(), 0u);
}

}  // namespace
}  // namespace ipsketch

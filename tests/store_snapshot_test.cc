// Epoch-snapshot read path of SketchStore (PinShard / ShardView) and the
// batch top-k API that rides on it: copy-on-write publication semantics,
// RCU liveness of pinned views, reads that take no shard mutex (even from
// inside a listener callback), and coherence across CompactifyInPlace.

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/synthetic.h"
#include "service/query_engine.h"
#include "service/sketch_store.h"

namespace ipsketch {
namespace {

constexpr uint64_t kDim = 512;

SketchStoreOptions SmallStoreOptions(const std::string& family = "wmh") {
  SketchStoreOptions opts;
  opts.family = family;
  opts.sketch.dimension = kDim;
  opts.sketch.num_samples = 64;
  opts.sketch.seed = 42;
  opts.num_shards = 8;
  return opts;
}

// A deterministic random sparse vector with ~24 non-zeros.
SparseVector RandomVector(uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<Entry> entries;
  for (uint64_t index : SampleDistinctIndices(kDim, 24, seed)) {
    entries.push_back({index, rng.NextUnit() * 2.0 - 1.0});
  }
  return SparseVector::MakeOrDie(kDim, std::move(entries));
}

SketchStore MakeStoreOrDie(const SketchStoreOptions& opts) {
  auto made = SketchStore::Make(opts);
  IPS_CHECK(made.ok());
  return std::move(made).value();
}

TEST(StoreSnapshotTest, EmptyStorePublishesEpochZeroViews) {
  SketchStore store = MakeStoreOrDie(SmallStoreOptions());
  for (size_t s = 0; s < store.num_shards(); ++s) {
    ShardViewPtr view = store.PinShard(s);
    ASSERT_NE(view, nullptr);
    EXPECT_EQ(view->epoch, 0u);
    EXPECT_TRUE(view->ids.empty());
    ASSERT_NE(view->family, nullptr);
    EXPECT_EQ(view->family->name(), "wmh");
    EXPECT_EQ(view->Find(123), nullptr);
  }
  EXPECT_EQ(store.PinStore().size(), store.num_shards());
}

TEST(StoreSnapshotTest, InsertPublishesSortedViewAndAdvancesEpoch) {
  SketchStore store = MakeStoreOrDie(SmallStoreOptions());
  for (uint64_t id = 0; id < 64; ++id) {
    ASSERT_TRUE(store.BuildAndInsert(id, RandomVector(id)).ok());
  }
  size_t resident = 0;
  for (size_t s = 0; s < store.num_shards(); ++s) {
    ShardViewPtr view = store.PinShard(s);
    ASSERT_EQ(view->ids.size(), view->sketches.size());
    // One publication per insert into this shard.
    EXPECT_EQ(view->epoch, view->ids.size());
    for (size_t i = 0; i + 1 < view->ids.size(); ++i) {
      EXPECT_LT(view->ids[i], view->ids[i + 1]);
    }
    for (size_t i = 0; i < view->ids.size(); ++i) {
      EXPECT_EQ(store.ShardOf(view->ids[i]), s);
      EXPECT_EQ(view->Find(view->ids[i]), view->sketches[i].get());
    }
    resident += view->ids.size();
  }
  EXPECT_EQ(resident, 64u);
}

TEST(StoreSnapshotTest, EraseAndReplacePublishSuccessorViews) {
  SketchStore store = MakeStoreOrDie(SmallStoreOptions());
  ASSERT_TRUE(store.BuildAndInsert(7, RandomVector(1)).ok());
  const size_t s = store.ShardOf(7);
  ShardViewPtr v1 = store.PinShard(s);
  ASSERT_NE(v1->Find(7), nullptr);

  // Replace: new view holds a different sketch object under the same id.
  ASSERT_TRUE(store.BuildAndInsert(7, RandomVector(2)).ok());
  ShardViewPtr v2 = store.PinShard(s);
  EXPECT_GT(v2->epoch, v1->epoch);
  ASSERT_NE(v2->Find(7), nullptr);
  EXPECT_NE(v2->Find(7), v1->Find(7));
  EXPECT_EQ(v2->ids.size(), v1->ids.size());

  ASSERT_TRUE(store.Erase(7).ok());
  ShardViewPtr v3 = store.PinShard(s);
  EXPECT_GT(v3->epoch, v2->epoch);
  EXPECT_EQ(v3->Find(7), nullptr);
  // The pinned predecessors are immutable: they still serve the old epochs.
  EXPECT_NE(v1->Find(7), nullptr);
  EXPECT_NE(v2->Find(7), nullptr);
}

TEST(StoreSnapshotTest, PinnedViewKeepsSketchesAliveAcrossMutations) {
  SketchStore store = MakeStoreOrDie(SmallStoreOptions());
  ASSERT_TRUE(store.BuildAndInsert(1, RandomVector(1)).ok());
  ASSERT_TRUE(store.BuildAndInsert(2, RandomVector(2)).ok());
  ShardViewPtr va = store.PinShard(store.ShardOf(1));
  ShardViewPtr vb = store.PinShard(store.ShardOf(2));
  const AnySketch* a = va->Find(1);
  const AnySketch* b = vb->Find(2);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Erase both and churn the shards; the pinned epoch still estimates.
  ASSERT_TRUE(store.Erase(1).ok());
  ASSERT_TRUE(store.Erase(2).ok());
  for (uint64_t id = 100; id < 164; ++id) {
    ASSERT_TRUE(store.BuildAndInsert(id, RandomVector(id)).ok());
  }
  auto est = va->family->Estimate(*a, *b);
  ASSERT_TRUE(est.ok());
  auto direct = QueryEngine(&store).EstimateInnerProduct(1, 2);
  EXPECT_FALSE(direct.ok());  // gone from the live store...
  EXPECT_TRUE(std::isfinite(est.value()));  // ...but the pin still serves
}

// Every store read pins a view and takes no shard mutex, so reads run even
// from inside a Listener callback, which holds the mutated id's kStoreShard
// mutex: a read that took a shard mutex would abort under the debug rank
// checker (same-rank re-entry) or self-deadlock in release builds.
class ReadingListener : public SketchStore::Listener {
 public:
  ReadingListener(const SketchStore* store, const QueryEngine* engine)
      : store_(store), engine_(engine) {}

  void OnInsert(uint64_t id, const AnySketch& /*sketch*/) override {
    ++calls_;
    // The entry being inserted is already visible to readers.
    EXPECT_TRUE(store_->Contains(id));
    EXPECT_TRUE(store_->Lookup(id).ok());
    EXPECT_GE(store_->size(), 1u);
    EXPECT_TRUE(engine_->EstimateInnerProduct(id, id).ok());
    auto hits = engine_->TopK(RandomVector(31), 3);
    ASSERT_TRUE(hits.ok());
    EXPECT_FALSE(hits.value().empty());
  }
  void OnErase(uint64_t id) override {
    ++calls_;
    EXPECT_TRUE(store_->Contains(id));  // "before id is removed"
  }

  int calls() const { return calls_; }

 private:
  const SketchStore* store_;
  const QueryEngine* engine_;
  int calls_ = 0;
};

TEST(StoreSnapshotTest, ReadsInsideListenerCallbackTakeNoShardMutex) {
  SketchStore store = MakeStoreOrDie(SmallStoreOptions());
  for (uint64_t id = 0; id < 8; ++id) {
    ASSERT_TRUE(store.BuildAndInsert(id, RandomVector(id)).ok());
  }
  const QueryEngine engine(&store);  // exact scan, serial
  ReadingListener listener(&store, &engine);
  // Attach replays the 8 resident entries under each shard's lock.
  ASSERT_TRUE(store.AttachListener(&listener).ok());
  ASSERT_TRUE(store.BuildAndInsert(100, RandomVector(100)).ok());
  ASSERT_TRUE(store.BuildAndInsert(3, RandomVector(103)).ok());  // replace
  ASSERT_TRUE(store.Erase(5).ok());
  ASSERT_TRUE(store.DetachListener(&listener).ok());
  EXPECT_EQ(listener.calls(), 11);
}

TEST(StoreSnapshotTest, CompactifyRepublishesCoherentViews) {
  SketchStore store = MakeStoreOrDie(SmallStoreOptions());
  for (uint64_t id = 0; id < 32; ++id) {
    ASSERT_TRUE(store.BuildAndInsert(id, RandomVector(id)).ok());
  }
  const size_t s = store.ShardOf(1);
  ShardViewPtr old_view = store.PinShard(s);
  ASSERT_EQ(old_view->family->name(), "wmh");

  ASSERT_TRUE(store.CompactifyInPlace("wmh_compact").ok());

  // New pins serve the compact family + compact sketches coherently.
  ShardViewPtr new_view = store.PinShard(s);
  EXPECT_GT(new_view->epoch, old_view->epoch);
  ASSERT_EQ(new_view->family->name(), "wmh_compact");
  ASSERT_EQ(new_view->ids, old_view->ids);
  for (size_t i = 0; i + 1 < new_view->ids.size(); ++i) {
    auto est = new_view->family->Estimate(*new_view->sketches[i],
                                          *new_view->sketches[i + 1]);
    EXPECT_TRUE(est.ok()) << est.status().ToString();
  }
  // The pre-compactify pin stays internally consistent: its own family
  // still understands its own (full-precision) sketches.
  for (size_t i = 0; i + 1 < old_view->ids.size(); ++i) {
    auto est = old_view->family->Estimate(*old_view->sketches[i],
                                          *old_view->sketches[i + 1]);
    EXPECT_TRUE(est.ok()) << est.status().ToString();
  }
}

TEST(StoreSnapshotTest, TopKSketchBatchMatchesSingleQueries) {
  SketchStore store = MakeStoreOrDie(SmallStoreOptions());
  for (uint64_t id = 0; id < 40; ++id) {
    ASSERT_TRUE(store.BuildAndInsert(id, RandomVector(id)).ok());
  }
  QueryEngine engine(&store);

  auto sketcher = store.family().MakeSketcher();
  ASSERT_TRUE(sketcher.ok());
  std::vector<std::unique_ptr<AnySketch>> queries;
  for (int i = 0; i < 5; ++i) {
    auto sketch = store.family().NewSketch();
    ASSERT_TRUE(
        sketcher.value()->Sketch(RandomVector(500 + i), sketch.get()).ok());
    queries.push_back(std::move(sketch));
  }
  std::vector<const AnySketch*> query_ptrs;
  std::vector<size_t> ks;
  for (size_t i = 0; i < queries.size(); ++i) {
    query_ptrs.push_back(queries[i].get());
    ks.push_back(3 + i);  // mixed per-query k
  }
  auto batch = engine.TopKSketchBatch(query_ptrs, ks);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << batch[i].status().ToString();
    auto single = engine.TopKSketch(*queries[i], ks[i]);
    ASSERT_TRUE(single.status().ok());
    ASSERT_EQ(batch[i].value().size(), single.value().size());
    for (size_t j = 0; j < single.value().size(); ++j) {
      EXPECT_EQ(batch[i].value()[j].id, single.value()[j].id);
      EXPECT_EQ(batch[i].value()[j].estimate, single.value()[j].estimate);
    }
  }
}

TEST(StoreSnapshotTest, TopKSketchBatchIsolatesBadSlots) {
  SketchStore store = MakeStoreOrDie(SmallStoreOptions());
  for (uint64_t id = 0; id < 16; ++id) {
    ASSERT_TRUE(store.BuildAndInsert(id, RandomVector(id)).ok());
  }
  QueryEngine engine(&store);

  auto good = store.Lookup(3);
  ASSERT_TRUE(good.ok());
  // A sketch from an incompatible family identity (different seed).
  SketchStoreOptions other_opts = SmallStoreOptions();
  other_opts.sketch.seed = 4242;
  SketchStore other = MakeStoreOrDie(other_opts);
  ASSERT_TRUE(other.BuildAndInsert(0, RandomVector(0)).ok());
  auto bad = other.Lookup(0);
  ASSERT_TRUE(bad.ok());

  std::vector<const AnySketch*> queries = {good.value().get(),
                                           bad.value().get(),
                                           good.value().get()};
  auto results = engine.TopKSketchBatch(queries, {5, 5, 5});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(results[2].ok());
  // The healthy slots are unaffected by the bad one.
  ASSERT_EQ(results[0].value().size(), 5u);
  EXPECT_EQ(results[0].value()[0].id, 3u);  // the stored copy of itself
}

// TSAN fodder: writers publish epochs while readers pin and estimate.
TEST(StoreSnapshotTest, ConcurrentIngestAndSnapshotReads) {
  SketchStore store = MakeStoreOrDie(SmallStoreOptions());
  for (uint64_t id = 0; id < 16; ++id) {
    ASSERT_TRUE(store.BuildAndInsert(id, RandomVector(id)).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> read_errors{0};
  std::thread writer([&] {
    for (uint64_t round = 0; round < 40; ++round) {
      for (uint64_t id = 16; id < 32; ++id) {
        IPS_CHECK(store.BuildAndInsert(id, RandomVector(id + round)).ok());
      }
      for (uint64_t id = 16; id < 32; id += 2) {
        IPS_CHECK(store.Erase(id).ok());
      }
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      QueryEngine engine(&store);
      uint64_t last_epoch = 0;
      while (!stop.load()) {
        ShardViewPtr view = store.PinShard(static_cast<size_t>(t) %
                                           store.num_shards());
        if (view->epoch < last_epoch) read_errors.fetch_add(1);
        last_epoch = view->epoch;
        auto hits = engine.TopK(RandomVector(900 + t), 4);
        if (!hits.status().ok()) read_errors.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(read_errors.load(), 0);
}

}  // namespace
}  // namespace ipsketch

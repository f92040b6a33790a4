// FrontDoor: async results match the synchronous engine, shedding and
// deadlines complete futures with the right codes, destruction never
// leaves a future hanging, and the read path takes zero shard mutexes.

#include "service/front_door.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/synthetic.h"
#include "index/banded_index.h"
#include "service/metrics.h"
#include "service/query_engine.h"
#include "service/sketch_store.h"
#include "service/thread_pool.h"

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

SketchStore MakePopulatedStore(size_t count = 40) {
  SketchStore store = MakeStoreOrDie(SmallStoreOptions());
  for (uint64_t id = 0; id < count; ++id) {
    IPS_CHECK(store.BuildAndInsert(id, RandomVector(id)).ok());
  }
  return store;
}

// Parks the pool's only worker until `release` goes true, so everything
// submitted behind it queues deterministically at the front door.
void BlockPool(ThreadPool* pool, std::atomic<bool>* release) {
  IPS_CHECK(pool->Submit([release] {
    while (!release->load()) std::this_thread::yield();
  }));
}

TEST(FrontDoorTest, FuturesMatchSynchronousEngine) {
  SketchStore store = MakePopulatedStore();
  ThreadPool pool(2);
  FrontDoor door(&store, &pool);
  QueryEngine sync(&store);

  auto est_future = door.SubmitEstimate(3, 17);
  auto topk_future = door.SubmitTopK(RandomVector(777), 10);

  auto est = est_future.Take();
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  auto sync_est = sync.EstimateInnerProduct(3, 17);
  ASSERT_TRUE(sync_est.ok());
  EXPECT_EQ(est.value(), sync_est.value());

  auto hits = topk_future.Take();
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  auto sync_hits = sync.TopK(RandomVector(777), 10);
  ASSERT_TRUE(sync_hits.status().ok());
  ASSERT_EQ(hits.value().size(), sync_hits.value().size());
  for (size_t i = 0; i < hits.value().size(); ++i) {
    EXPECT_EQ(hits.value()[i].id, sync_hits.value()[i].id);
    EXPECT_EQ(hits.value()[i].estimate, sync_hits.value()[i].estimate);
  }
}

TEST(FrontDoorTest, CallbackFormDelivers) {
  SketchStore store = MakePopulatedStore();
  ThreadPool pool(2);
  FrontDoor door(&store, &pool);

  std::atomic<int> pending{3};
  std::atomic<bool> all_ok{true};
  door.SubmitEstimate(1, 2, [&](FrontDoor::EstimateResult r) {
    if (!r.ok()) all_ok.store(false);
    pending.fetch_sub(1);
  });
  door.SubmitTopK(RandomVector(5), 4, [&](FrontDoor::TopKResult r) {
    if (!r.ok() || r.value().size() != 4) all_ok.store(false);
    pending.fetch_sub(1);
  });
  auto sketch = store.family().NewSketch();
  auto sketcher = store.family().MakeSketcher();
  ASSERT_TRUE(sketcher.ok());
  ASSERT_TRUE(sketcher.value()->Sketch(RandomVector(6), sketch.get()).ok());
  door.SubmitTopKSketch(std::move(sketch), 4, [&](FrontDoor::TopKResult r) {
    if (!r.ok() || r.value().size() != 4) all_ok.store(false);
    pending.fetch_sub(1);
  });
  while (pending.load() != 0) std::this_thread::yield();
  EXPECT_TRUE(all_ok.load());
}

TEST(FrontDoorTest, MissingIdsAndBadQueriesFailPerRequest) {
  SketchStore store = MakePopulatedStore(8);
  ThreadPool pool(1);
  FrontDoor door(&store, &pool);

  auto missing = door.SubmitEstimate(3, 99999).Take();
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // An incompatible pre-built sketch gets its own error slot; a healthy
  // request in the same window still completes.
  SketchStoreOptions other_opts = SmallStoreOptions();
  other_opts.sketch.seed = 4242;
  SketchStore other = MakeStoreOrDie(other_opts);
  ASSERT_TRUE(other.BuildAndInsert(0, RandomVector(0)).ok());
  auto bad = other.Lookup(0);
  ASSERT_TRUE(bad.ok());
  auto bad_future =
      door.SubmitTopKSketch(std::move(bad).value(), 3);
  auto good_future = door.SubmitTopK(RandomVector(9), 3);
  auto bad_result = bad_future.Take();
  ASSERT_FALSE(bad_result.ok());
  EXPECT_EQ(bad_result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(good_future.Take().ok());
}

TEST(FrontDoorTest, ShedsOnFullQueueWithUnavailable) {
  SketchStore store = MakePopulatedStore(16);
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  BlockPool(&pool, &release);

  FrontDoorOptions opts;
  opts.max_queue_depth = 4;
  FrontDoor door(&store, &pool, opts);

  std::vector<FrontDoorFuture<std::vector<QueryHit>>> futures;
  for (int i = 0; i < 7; ++i) {
    futures.push_back(door.SubmitTopK(RandomVector(100 + i), 3));
  }
  // The worker is parked, so the last three found the 4-deep queue full and
  // were shed synchronously at submit.
  size_t shed = 0;
  for (size_t i = 4; i < futures.size(); ++i) {
    ASSERT_TRUE(futures[i].Ready());
    auto r = futures[i].Take();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
    ++shed;
  }
  EXPECT_EQ(shed, 3u);

  release.store(true);
  for (size_t i = 0; i < 4; ++i) {
    auto r = futures[i].Take();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
}

TEST(FrontDoorTest, DeadlineExpiresWhileQueued) {
  SketchStore store = MakePopulatedStore(16);
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  BlockPool(&pool, &release);

  FrontDoor door(&store, &pool);
  // 1 ns budget: certainly expired by the time the parked worker frees up.
  auto doomed = door.SubmitTopK(RandomVector(1), 3, /*deadline_ns=*/1);
  auto patient = door.SubmitTopK(RandomVector(2), 3);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  release.store(true);

  auto r = doomed.Take();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(patient.Take().ok());
}

TEST(FrontDoorTest, DestructionCompletesEveryInFlightFuture) {
  SketchStore store = MakePopulatedStore(16);
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  BlockPool(&pool, &release);

  std::vector<FrontDoorFuture<std::vector<QueryHit>>> futures;
  {
    FrontDoor door(&store, &pool);
    for (int i = 0; i < 8; ++i) {
      futures.push_back(door.SubmitTopK(RandomVector(200 + i), 3));
    }
    release.store(true);
    // ~FrontDoor: sheds what is still queued, drains what is executing.
  }
  for (auto& f : futures) {
    ASSERT_TRUE(f.Ready());  // the destructor may not leave futures hanging
    auto r = f.Take();
    EXPECT_TRUE(r.ok() || r.status().code() == StatusCode::kUnavailable)
        << r.status().ToString();
  }
}

TEST(FrontDoorTest, NullPoolDispatchesInline) {
  SketchStore store = MakePopulatedStore(16);
  FrontDoor door(&store, /*pool=*/nullptr);
  auto r = door.SubmitTopK(RandomVector(3), 5).Take();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().size(), 5u);
}

TEST(FrontDoorTest, SnapshotReadsServeThroughCompactifyRefusal) {
  SketchStore store = MakePopulatedStore();
  auto index = BandedIndex::MakeAttached(&store, {/*bands=*/8, /*rows=*/2});
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ThreadPool pool(2);
  FrontDoor door(&store, &pool, {}, index.value().get(),
                 IndexPolicy::kBandedRerank);

  auto before = door.SubmitTopK(RandomVector(50), 5).Take();
  ASSERT_TRUE(before.ok());

  // With a listener attached, in-place compactification must refuse — the
  // slab mirror cannot survive a family swap.
  Status st = store.CompactifyInPlace("wmh_compact");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);

  // The refusal perturbed nothing: the same query answers identically.
  auto after = door.SubmitTopK(RandomVector(50), 5).Take();
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after.value().size(), before.value().size());
  for (size_t i = 0; i < after.value().size(); ++i) {
    EXPECT_EQ(after.value()[i].id, before.value()[i].id);
    EXPECT_EQ(after.value()[i].estimate, before.value()[i].estimate);
  }
}

// Acceptance: the front door's read path never acquires a store shard
// mutex. Requests submitted from inside a Listener callback — which holds
// the mutated id's kStoreShard mutex — run inline (null pool) and complete;
// a shard-mutex read would abort under the debug rank checker or
// self-deadlock in release builds.
class SubmittingListener : public SketchStore::Listener {
 public:
  explicit SubmittingListener(FrontDoor* door) : door_(door) {}

  void OnInsert(uint64_t id, const AnySketch& /*sketch*/) override {
    auto topk = door_->SubmitTopK(RandomVector(400 + id), 5).Take();
    ASSERT_TRUE(topk.ok()) << topk.status().ToString();
    EXPECT_EQ(topk.value().size(), 5u);
    auto est = door_->SubmitEstimate(id, id % 40).Take();
    EXPECT_TRUE(est.ok()) << est.status().ToString();
    ++inserts_;
  }
  void OnErase(uint64_t /*id*/) override {}

  int inserts() const { return inserts_; }

 private:
  FrontDoor* door_;
  int inserts_ = 0;
};

TEST(FrontDoorTest, ReadsFromUnderAStoreShardLockComplete) {
  SketchStore store = MakePopulatedStore();
  FrontDoor door(&store, /*pool=*/nullptr);
  SubmittingListener listener(&door);
  ASSERT_TRUE(store.AttachListener(&listener).ok());  // replays 40 entries
  for (uint64_t id = 40; id < 48; ++id) {
    ASSERT_TRUE(store.BuildAndInsert(id, RandomVector(id)).ok());
  }
  ASSERT_TRUE(store.DetachListener(&listener).ok());
  EXPECT_EQ(listener.inserts(), 48);
}

TEST(FrontDoorTest, CountersAccountForEveryOutcome) {
  if (!metrics::kCompiledIn) {
    GTEST_SKIP() << "metrics compiled out";
  }
  metrics::SetEnabledForTesting(true);
  auto& registry = metrics::MetricsRegistry::Global();
  auto& submitted = registry.GetCounter("ipsketch_frontdoor_submitted_total",
                                        "Requests submitted to the front door");
  auto& completed = registry.GetCounter(
      "ipsketch_frontdoor_completed_total",
      "Requests that executed to completion (answer or engine error)");
  auto& shed = registry.GetCounter(
      "ipsketch_frontdoor_shed_total",
      "Requests rejected with Unavailable (queue full or shutdown)");
  auto& expired = registry.GetCounter(
      "ipsketch_frontdoor_deadline_expired_total",
      "Requests whose deadline passed while queued (DeadlineExceeded)");
  const uint64_t submitted0 = submitted.Value();
  const uint64_t completed0 = completed.Value();
  const uint64_t shed0 = shed.Value();
  const uint64_t expired0 = expired.Value();

  SketchStore store = MakePopulatedStore(16);
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  BlockPool(&pool, &release);
  FrontDoorOptions opts;
  opts.max_queue_depth = 2;
  FrontDoor door(&store, &pool, opts);

  auto ok1 = door.SubmitTopK(RandomVector(1), 3);
  auto doomed = door.SubmitTopK(RandomVector(2), 3, /*deadline_ns=*/1);
  auto rejected = door.SubmitTopK(RandomVector(3), 3);  // queue full
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  release.store(true);
  ASSERT_TRUE(ok1.Take().ok());
  ASSERT_EQ(doomed.Take().status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_EQ(rejected.Take().status().code(), StatusCode::kUnavailable);

  EXPECT_EQ(submitted.Value() - submitted0, 3u);
  EXPECT_EQ(completed.Value() - completed0, 1u);
  EXPECT_EQ(shed.Value() - shed0, 1u);
  EXPECT_EQ(expired.Value() - expired0, 1u);
}

}  // namespace
}  // namespace ipsketch

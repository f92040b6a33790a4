// BandedIndex + index-aware QueryEngine: listener attach/replay coherence
// under insert/erase/replace, banded top-k against the exact scan (banded
// must find planted neighbors), TopK edge cases on both paths,
// deterministic tie-breaks, null-index fallback accounting, recall probes,
// and a concurrent insert/erase/query stress the TSAN job runs.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
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

SketchStore MakeFilledStore(size_t count, uint64_t seed_base = 100) {
  auto made = SketchStore::Make(SmallStoreOptions());
  IPS_CHECK(made.ok());
  SketchStore store = std::move(made).value();
  for (size_t i = 0; i < count; ++i) {
    IPS_CHECK(store.BuildAndInsert(i + 1, RandomVector(seed_base + i)).ok());
  }
  return store;
}

uint64_t CounterValue(const std::string& name) {
  return metrics::MetricsRegistry::Global().GetCounter(name, "").Value();
}

TEST(BandedLshParamsTest, ValidateEnforcesTheBandsTimesRowsBudget) {
  EXPECT_TRUE((BandedLshParams{16, 4}).Validate(64).ok());
  EXPECT_TRUE((BandedLshParams{1, 1}).Validate(1).ok());
  EXPECT_TRUE((BandedLshParams{21, 3}).Validate(64).ok());  // 63 ≤ 64
  EXPECT_EQ((BandedLshParams{0, 4}).Validate(64).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((BandedLshParams{4, 0}).Validate(64).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((BandedLshParams{17, 4}).Validate(64).code(),
            StatusCode::kInvalidArgument);  // 68 > 64
}

TEST(BandedIndexTest, MakeAttachedRejectsNonBandingFamilies) {
  for (const char* family : {"kmv", "cs", "jl"}) {
    SCOPED_TRACE(family);
    auto made = SketchStore::Make(SmallStoreOptions(family));
    ASSERT_TRUE(made.ok());
    SketchStore store = std::move(made).value();
    auto index = BandedIndex::MakeAttached(&store, {16, 4});
    EXPECT_EQ(index.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(BandedIndexTest, AttachReplaysResidentSketchesExactlyOnce) {
  SketchStore store = MakeFilledStore(37);
  auto index = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index.value()->size(), store.size());
  EXPECT_EQ(index.value()->size(), 37u);
}

TEST(BandedIndexTest, OnlyOneListenerMayAttach) {
  SketchStore store = MakeFilledStore(5);
  auto made = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(made.ok());
  std::unique_ptr<BandedIndex> first = std::move(made).value();
  auto second = BandedIndex::MakeAttached(&store, {8, 8});
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
  // Compactify must refuse too: it would swap the family out from under
  // the attached mirror.
  EXPECT_EQ(store.CompactifyInPlace("wmh_compact").code(),
            StatusCode::kFailedPrecondition);
  // Destroying the index detaches; the slot frees up.
  first.reset();
  auto third = BandedIndex::MakeAttached(&store, {8, 8});
  EXPECT_TRUE(third.ok());
}

TEST(BandedIndexTest, IndexTracksInsertEraseAndReplace) {
  SketchStore store = MakeFilledStore(0);
  auto index = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(index.ok());

  for (size_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(store.BuildAndInsert(i + 1, RandomVector(500 + i)).ok());
  }
  EXPECT_EQ(index.value()->size(), 20u);

  // Replace (insert under an existing id) must not grow the index.
  ASSERT_TRUE(store.BuildAndInsert(7, RandomVector(999)).ok());
  EXPECT_EQ(index.value()->size(), 20u);

  // Erase shrinks; erasing an absent id is NotFound and leaves it alone.
  ASSERT_TRUE(store.Erase(7).ok());
  ASSERT_TRUE(store.Erase(13).ok());
  EXPECT_EQ(store.Erase(7).code(), StatusCode::kNotFound);
  EXPECT_EQ(index.value()->size(), 18u);

  // The replaced sketch is queryable under its new contents: a banded
  // self-query for the replacement vector must surface id 7... after
  // reinserting it.
  ASSERT_TRUE(store.BuildAndInsert(7, RandomVector(999)).ok());
  QueryEngine engine(&store, nullptr, index.value().get(),
                     IndexPolicy::kBandedRerank);
  auto hits = engine.TopK(RandomVector(999), 1);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits.value().size(), 1u);
  EXPECT_EQ(hits.value()[0].id, 7u);
}

TEST(BandedIndexTest, BandedSelfQueriesFindEveryStoredVector) {
  // A query identical to a stored vector collides on every sample, hence in
  // every band — the index is *guaranteed* to surface it, whatever (b, r).
  constexpr size_t kCorpus = 30;
  SketchStore store = MakeFilledStore(kCorpus);
  auto index = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(index.ok());
  QueryEngine engine(&store, nullptr, index.value().get(),
                     IndexPolicy::kBandedRerank);
  for (size_t i = 0; i < kCorpus; ++i) {
    auto hits = engine.TopK(RandomVector(100 + i), 1);
    ASSERT_TRUE(hits.ok());
    ASSERT_EQ(hits.value().size(), 1u) << "query " << i;
    EXPECT_EQ(hits.value()[0].id, i + 1) << "query " << i;
  }
}

TEST(BandedIndexTest, TopKEdgeCasesOnExactAndBandedPaths) {
  SketchStore empty_store = MakeFilledStore(0);
  auto empty_index = BandedIndex::MakeAttached(&empty_store, {16, 4});
  ASSERT_TRUE(empty_index.ok());
  constexpr size_t kCorpus = 23;  // spans all 8 shards unevenly
  SketchStore store = MakeFilledStore(kCorpus);
  auto index = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(index.ok());
  const SparseVector query = RandomVector(777);

  const IndexPolicy policies[] = {IndexPolicy::kExactScan,
                                  IndexPolicy::kBandedRerank};
  for (IndexPolicy policy : policies) {
    SCOPED_TRACE(static_cast<int>(policy));
    QueryEngine on_empty(&empty_store, nullptr, empty_index.value().get(),
                         policy);
    QueryEngine engine(&store, nullptr, index.value().get(), policy);

    // Empty store: no hits at any k.
    for (size_t k : {0u, 1u, 10u}) {
      auto hits = on_empty.TopK(query, k);
      ASSERT_TRUE(hits.ok());
      EXPECT_TRUE(hits.value().empty()) << "k=" << k;
    }

    // k = 0: always empty.
    auto none = engine.TopK(query, 0);
    ASSERT_TRUE(none.ok());
    EXPECT_TRUE(none.value().empty());

    // k > corpus: at most the corpus comes back (exact returns all of
    // it; banded returns its candidates), sorted best-first with no
    // duplicate ids.
    auto all = engine.TopK(query, kCorpus + 100);
    ASSERT_TRUE(all.ok());
    EXPECT_LE(all.value().size(), kCorpus);
    if (policy != IndexPolicy::kBandedRerank) {
      EXPECT_EQ(all.value().size(), kCorpus);
    }
    for (size_t i = 1; i < all.value().size(); ++i) {
      EXPECT_GE(all.value()[i - 1].estimate, all.value()[i].estimate);
      EXPECT_NE(all.value()[i - 1].id, all.value()[i].id);
    }

    // k mid-corpus (crosses shard boundaries, 23 ids over 8 shards): the
    // result is the k-prefix of the full ranking.
    auto some = engine.TopK(query, 9);
    ASSERT_TRUE(some.ok());
    ASSERT_LE(some.value().size(), 9u);
    for (size_t i = 0; i < some.value().size(); ++i) {
      EXPECT_EQ(some.value()[i].id, all.value()[i].id) << "rank " << i;
      EXPECT_EQ(std::bit_cast<uint64_t>(some.value()[i].estimate),
                std::bit_cast<uint64_t>(all.value()[i].estimate));
    }
  }
}

TEST(BandedIndexTest, TiedEstimatesBreakTowardSmallerIdsOnEveryPath) {
  // The same vector under many ids produces exactly equal estimates; the
  // deterministic tie-break (core/similarity_search.h BetterHit) must hand
  // back the numerically smallest ids, in order, on every path — this pins
  // result stability across thread counts, shard orders, and policies.
  SketchStore store = MakeFilledStore(0);
  auto index = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(index.ok());
  const SparseVector vec = RandomVector(4242);
  const std::vector<uint64_t> ids = {90, 12, 55, 3, 71, 28, 41, 66, 17, 84};
  for (uint64_t id : ids) {
    ASSERT_TRUE(store.BuildAndInsert(id, vec).ok());
  }
  ThreadPool pool(4);
  const IndexPolicy policies[] = {IndexPolicy::kExactScan,
                                  IndexPolicy::kBandedRerank};
  for (IndexPolicy policy : policies) {
    SCOPED_TRACE(static_cast<int>(policy));
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      QueryEngine engine(&store, p, index.value().get(), policy);
      auto hits = engine.TopK(vec, 4);
      ASSERT_TRUE(hits.ok());
      ASSERT_EQ(hits.value().size(), 4u);
      EXPECT_EQ(hits.value()[0].id, 3u);
      EXPECT_EQ(hits.value()[1].id, 12u);
      EXPECT_EQ(hits.value()[2].id, 17u);
      EXPECT_EQ(hits.value()[3].id, 28u);
    }
  }
}

TEST(BandedIndexTest, NullIndexFallsBackToExactScanAndCounts) {
  SketchStore store = MakeFilledStore(15);
  QueryEngine exact(&store, nullptr);
  QueryEngine no_index(&store, nullptr, nullptr, IndexPolicy::kBandedRerank);
  const SparseVector query = RandomVector(31337);

  const uint64_t fallbacks_before = CounterValue("ipsketch_index_fallback_total");
  auto expected = exact.TopK(query, 5);
  auto got = no_index.TopK(query, 5);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(expected.value().size(), got.value().size());
  for (size_t i = 0; i < expected.value().size(); ++i) {
    EXPECT_EQ(expected.value()[i].id, got.value()[i].id);
    EXPECT_EQ(std::bit_cast<uint64_t>(expected.value()[i].estimate),
              std::bit_cast<uint64_t>(got.value()[i].estimate));
  }
  EXPECT_EQ(CounterValue("ipsketch_index_fallback_total"),
            fallbacks_before + 1);
  // The dedicated-exact engine never counts a fallback.
  EXPECT_EQ(expected.value().size(), 5u);
}

TEST(BandedIndexTest, ProbeRecallIsBoundedAndPerfectOnSelfQueries) {
  SketchStore store = MakeFilledStore(40);
  auto index = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(index.ok());
  QueryEngine engine(&store, nullptr, index.value().get(),
                     IndexPolicy::kBandedRerank);
  QueryEngine no_index(&store, nullptr);
  EXPECT_EQ(no_index.ProbeRecall(RandomVector(1), 10).status().code(),
            StatusCode::kFailedPrecondition);

  const uint64_t expected_before =
      CounterValue("ipsketch_index_recall_probe_expected_total");
  const uint64_t hits_before =
      CounterValue("ipsketch_index_recall_probe_hits_total");
  uint64_t probes = 0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    auto recall = engine.ProbeRecall(RandomVector(6000 + seed), 10);
    ASSERT_TRUE(recall.ok());
    EXPECT_GE(recall.value(), 0.0);
    EXPECT_LE(recall.value(), 1.0);
    ++probes;
  }
  // A self-query's top-1 is the stored twin on both paths: recall 1.0.
  auto self = engine.ProbeRecall(RandomVector(100), 1);
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(self.value(), 1.0);
  EXPECT_EQ(CounterValue("ipsketch_index_recall_probe_expected_total") -
                expected_before,
            probes * 10 + 1);
  EXPECT_GE(CounterValue("ipsketch_index_recall_probe_hits_total"),
            hits_before + 1);

  // Empty store: exact set is empty, recall defined as 1.0.
  SketchStore empty_store = MakeFilledStore(0);
  auto empty_index = BandedIndex::MakeAttached(&empty_store, {16, 4});
  ASSERT_TRUE(empty_index.ok());
  QueryEngine on_empty(&empty_store, nullptr, empty_index.value().get(),
                       IndexPolicy::kBandedRerank);
  auto empty_recall = on_empty.ProbeRecall(RandomVector(2), 10);
  ASSERT_TRUE(empty_recall.ok());
  EXPECT_EQ(empty_recall.value(), 1.0);
}

// TSAN coverage: writers mutating the store (and, through the listener, the
// index) while readers run banded queries concurrently.
TEST(BandedIndexTest, ConcurrentInsertEraseAndQueryStress) {
  SketchStore store = MakeFilledStore(32);
  auto index = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(index.ok());
  ThreadPool pool(2);
  QueryEngine engine(&store, &pool, index.value().get(),
                     IndexPolicy::kBandedRerank);

  constexpr size_t kOps = 150;
  std::thread writer([&] {
    for (size_t i = 0; i < kOps; ++i) {
      // Half fresh ids, half replacements of the seeded range.
      const uint64_t id = (i % 2 == 0) ? 1000 + i : 1 + (i % 32);
      ASSERT_TRUE(store.BuildAndInsert(id, RandomVector(7000 + i)).ok());
    }
  });
  std::thread eraser([&] {
    for (size_t i = 0; i < kOps; ++i) {
      store.Erase(1 + (i % 32));  // NotFound races are expected and fine
    }
  });
  std::thread banded_reader([&] {
    for (size_t i = 0; i < 40; ++i) {
      auto hits = engine.TopK(RandomVector(8000 + i), 5);
      ASSERT_TRUE(hits.ok());
    }
  });
  writer.join();
  eraser.join();
  banded_reader.join();

  // Quiesced: the index mirrors the store exactly — same resident count,
  // and every banded hit carries the exact scan's estimate bit for bit.
  EXPECT_EQ(index.value()->size(), store.size());
  QueryEngine exact(&store, nullptr);
  auto all = exact.EstimateAgainstQuery(RandomVector(9999));
  auto banded = engine.TopK(RandomVector(9999), 20);
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(banded.ok());
  for (const QueryHit& hit : banded.value()) {
    auto it = std::lower_bound(
        all.value().begin(), all.value().end(), hit.id,
        [](const QueryHit& h, uint64_t id) { return h.id < id; });
    ASSERT_NE(it, all.value().end());
    ASSERT_EQ(it->id, hit.id);
    EXPECT_EQ(std::bit_cast<uint64_t>(it->estimate),
              std::bit_cast<uint64_t>(hit.estimate));
  }
}

}  // namespace
}  // namespace ipsketch

// BandedIndex + index-aware QueryEngine: view catch-up coherence under
// insert/erase/replace, compactify, store move-assignment and several
// indexes over one store, banded top-k against the exact scan (banded
// must find planted neighbors, and for every banding family its hits are a
// bit-equal, same-order subset of the exact ranking), per-family LSH codes,
// TopK edge cases on both paths, deterministic tie-breaks, null-index
// fallback accounting, recall probes, and a concurrent insert/erase/query
// stress the TSAN job runs.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
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

// Same ids, same order, same estimate bits.
void ExpectBitEqual(const std::vector<QueryHit>& got,
                    const std::vector<QueryHit>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "rank " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].estimate),
              std::bit_cast<uint64_t>(want[i].estimate))
        << "rank " << i;
  }
}

// `index` has caught up with `store` exactly: it holds as many ids, and its
// banded answers match, bit for bit, those of an index freshly attached
// with the same (b, r).
void ExpectMatchesFreshIndex(SketchStore* store, const BandedIndex& index,
                             uint64_t query_seed) {
  EXPECT_EQ(index.size(), store->size());
  auto fresh = BandedIndex::MakeAttached(store, index.params());
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  QueryEngine served(store, nullptr, &index, IndexPolicy::kBandedRerank);
  QueryEngine rebuilt(store, nullptr, fresh.value().get(),
                      IndexPolicy::kBandedRerank);
  for (uint64_t q = 0; q < 8; ++q) {
    // Even queries come from the caller's seeds (usually twins of vectors
    // it stored), odd ones from MakeFilledStore's default seeds.
    const SparseVector query =
        RandomVector(q % 2 == 0 ? query_seed + q : 100 + q);
    auto got = served.TopK(query, 10);
    auto want = rebuilt.TopK(query, 10);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ExpectBitEqual(got.value(), want.value());
  }
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

// --- per-family banding -------------------------------------------------

struct BandingFamily {
  std::string family;
  std::map<std::string, std::string> params;
};

std::vector<BandingFamily> BandingFamilies() {
  return {
      {"wmh", {{"engine", "dart"}}},
      {"icws", {{"engine", "dart"}}},
      {"mh", {}},
      {"wmh_compact", {{"engine", "dart"}}},
      {"wmh_bbit", {{"engine", "dart"}, {"bits", "12"}}},
  };
}

SketchStoreOptions BandingStoreOptions(const BandingFamily& config) {
  SketchStoreOptions opts = SmallStoreOptions(config.family);
  opts.sketch.params = config.params;
  return opts;
}

std::shared_ptr<const SketchFamily> MakeFamilyOrDie(
    const std::string& name, const FamilyOptions& options) {
  auto family = MakeFamily(name, options);
  IPS_CHECK(family.ok());
  return std::move(family).value();
}

std::unique_ptr<AnySketch> SketchOrDie(const SketchFamily& family,
                                       const SparseVector& vec) {
  auto sketcher = family.MakeSketcher();
  IPS_CHECK(sketcher.ok());
  auto sketch = family.NewSketch();
  IPS_CHECK(sketcher.value()->Sketch(vec, sketch.get()).ok());
  return sketch;
}

class BandingFamilyTest : public ::testing::TestWithParam<BandingFamily> {};

TEST_P(BandingFamilyTest, BandedTopKIsABitEqualSameOrderSubsetOfExact) {
  constexpr size_t kCorpus = 60;
  auto made = SketchStore::Make(BandingStoreOptions(GetParam()));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  SketchStore store = std::move(made).value();
  for (size_t i = 0; i < kCorpus; ++i) {
    ASSERT_TRUE(store.BuildAndInsert(i + 1, RandomVector(300 + i)).ok());
  }
  auto index = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  QueryEngine exact(&store, nullptr);
  QueryEngine banded(&store, nullptr, index.value().get(),
                     IndexPolicy::kBandedRerank);

  // Self-queries (guaranteed candidates) and fresh vectors.
  for (uint64_t seed : {300u, 317u, 359u, 9001u, 9002u}) {
    SCOPED_TRACE(seed);
    const SparseVector query = RandomVector(seed);
    auto ranking = exact.TopK(query, kCorpus);
    auto hits = banded.TopK(query, 10);
    ASSERT_TRUE(ranking.ok());
    ASSERT_TRUE(hits.ok());
    ASSERT_EQ(ranking.value().size(), kCorpus);
    if (seed < 9000) {
      ASSERT_FALSE(hits.value().empty());
      EXPECT_EQ(hits.value()[0].id, seed - 300 + 1);
    }
    size_t next_rank = 0;
    for (const QueryHit& hit : hits.value()) {
      auto it = std::find_if(
          ranking.value().begin() + static_cast<ptrdiff_t>(next_rank),
          ranking.value().end(),
          [&](const QueryHit& h) { return h.id == hit.id; });
      ASSERT_NE(it, ranking.value().end())
          << "id " << hit.id << " out of exact-ranking order";
      EXPECT_EQ(std::bit_cast<uint64_t>(it->estimate),
                std::bit_cast<uint64_t>(hit.estimate))
          << "id " << hit.id;
      next_rank = static_cast<size_t>(it - ranking.value().begin()) + 1;
    }
  }
}

TEST_P(BandingFamilyTest, ProbeShardRefusesIncompatibleQueries) {
  auto made = SketchStore::Make(BandingStoreOptions(GetParam()));
  ASSERT_TRUE(made.ok());
  SketchStore store = std::move(made).value();
  ASSERT_TRUE(store.BuildAndInsert(1, RandomVector(1)).ok());
  auto index = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(index.ok());

  FamilyOptions other = store.family().options();
  other.seed += 1;  // same type, different identity
  auto foreign = SketchOrDie(*MakeFamilyOrDie(GetParam().family, other),
                             RandomVector(1));
  std::vector<uint64_t> keys;
  EXPECT_EQ(index.value()->QueryBandKeys(*foreign, &keys).code(),
            StatusCode::kInvalidArgument);
  // Refused before any bucket is probed, even with no keys to collide on.
  for (size_t s = 0; s < store.num_shards(); ++s) {
    TopKHeap heap(5);
    IndexProbeStats stats;
    EXPECT_EQ(index.value()->ProbeShard(*foreign, {}, s, &heap, &stats).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(stats.candidates, 0u);
  }
}

TEST_P(BandingFamilyTest, LshCodesAreOnePerSampleAndCollisionExact) {
  FamilyOptions options = BandingStoreOptions(GetParam()).sketch;
  options.num_samples = 67;  // odd, not a multiple of any band width
  auto family = MakeFamilyOrDie(GetParam().family, options);
  ASSERT_TRUE(family->supports_banding());
  auto a = SketchOrDie(*family, RandomVector(4000));
  auto b = SketchOrDie(*family, RandomVector(4001));

  std::vector<uint64_t> codes_a, codes_b;
  ASSERT_TRUE(family->AppendLshCodes(*a, &codes_a).ok());
  ASSERT_TRUE(family->AppendLshCodes(*b, &codes_b).ok());
  EXPECT_EQ(codes_a.size(), 67u);
  EXPECT_EQ(codes_b.size(), 67u);

  // Two sketches of the same vector collide on every sample.
  auto duplicate = SketchOrDie(*family, RandomVector(4000));
  std::vector<uint64_t> codes_dup;
  ASSERT_TRUE(family->AppendLshCodes(*duplicate, &codes_dup).ok());
  EXPECT_EQ(codes_a, codes_dup);

  // Append accumulates rather than clearing.
  ASSERT_TRUE(family->AppendLshCodes(*b, &codes_a).ok());
  EXPECT_EQ(codes_a.size(), 2 * 67u);
}

INSTANTIATE_TEST_SUITE_P(
    BandingFamilies, BandingFamilyTest, ::testing::ValuesIn(BandingFamilies()),
    [](const ::testing::TestParamInfo<BandingFamily>& info) {
      return info.param.family;
    });

TEST(BandedIndexTest, NonBandingFamiliesRefuseCodes) {
  for (const char* name : {"kmv", "cs", "jl"}) {
    SCOPED_TRACE(name);
    auto family = MakeFamilyOrDie(name, SmallStoreOptions(name).sketch);
    EXPECT_FALSE(family->supports_banding());
    std::vector<uint64_t> codes;
    auto sketch = SketchOrDie(*family, RandomVector(5000));
    EXPECT_EQ(family->AppendLshCodes(*sketch, &codes).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_TRUE(codes.empty());
  }
}

TEST(BandedIndexTest, RegistryBandingFlagsMatchTheSamplingFamilies) {
  for (const FamilyInfo& info : RegisteredFamilies()) {
    const bool expected = info.name == "wmh" || info.name == "icws" ||
                          info.name == "mh" || info.name == "wmh_compact" ||
                          info.name == "wmh_bbit";
    EXPECT_EQ(info.supports_banding, expected) << info.name;
  }
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
  metrics::SetEnabledForTesting(true);
  const uint64_t filed_before = CounterValue("ipsketch_index_inserts_total");
  auto index = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  if (metrics::kCompiledIn) {
    // Attach files every shard itself; no query is needed to build it.
    EXPECT_EQ(CounterValue("ipsketch_index_inserts_total") - filed_before,
              37u);
  }
  EXPECT_EQ(index.value()->size(), store.size());
  EXPECT_EQ(index.value()->size(), 37u);
}

TEST(BandedIndexTest, IndexesWithDifferentBandingShareOneStore) {
  SketchStore store = MakeFilledStore(40);
  auto narrow = BandedIndex::MakeAttached(&store, {16, 4});
  auto wide = BandedIndex::MakeAttached(&store, {8, 8});
  ASSERT_TRUE(narrow.ok()) << narrow.status().ToString();
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();
  std::unique_ptr<BandedIndex> dropped = std::move(narrow).value();
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.BuildAndInsert(100 + i, RandomVector(700 + i)).ok());
  }
  ASSERT_TRUE(store.BuildAndInsert(3, RandomVector(800)).ok());  // replace
  ASSERT_TRUE(store.Erase(5).ok());
  ASSERT_TRUE(store.Erase(101).ok());
  // Seed 800 queries the replacement's twin.
  ExpectMatchesFreshIndex(&store, *dropped, 800);
  ExpectMatchesFreshIndex(&store, *wide.value(), 800);
  // Dropping one index leaves the other serving.
  dropped.reset();
  ASSERT_TRUE(store.BuildAndInsert(200, RandomVector(900)).ok());
  ExpectMatchesFreshIndex(&store, *wide.value(), 900);
}

TEST(BandedIndexTest, CompactifyWhileIndexedRefilesUnderTheNewFamily) {
  SketchStore store = MakeFilledStore(40);
  auto index = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ASSERT_TRUE(store.CompactifyInPlace("wmh_compact").ok());
  ASSERT_EQ(store.family().name(), "wmh_compact");
  ExpectMatchesFreshIndex(&store, *index.value(), 100);
  // Later writes keep flowing into the re-filed shards.
  ASSERT_TRUE(store.Erase(1).ok());
  ASSERT_TRUE(store.BuildAndInsert(50, RandomVector(600)).ok());
  ExpectMatchesFreshIndex(&store, *index.value(), 600);
}

TEST(BandedIndexTest, StoreMoveAssignedUnderTheIndexIsRefiled) {
  SketchStore store = MakeFilledStore(30);
  auto index = BandedIndex::MakeAttached(&store, {16, 4});
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  // Same ids, so every shard's view carries the same epoch as before: only
  // the view pointers tell the index that the contents changed.
  store = MakeFilledStore(30, /*seed_base=*/400);
  ExpectMatchesFreshIndex(&store, *index.value(), 400);
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

// TSAN coverage: writers insert, replace and erase while banded probers
// catch the index up and query concurrently. Once the writers stop, the
// served index must answer exactly as a freshly attached one does.
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
  std::thread serial_prober([&] {
    QueryEngine serial(&store, nullptr, index.value().get(),
                       IndexPolicy::kBandedRerank);
    for (size_t i = 0; i < 40; ++i) {
      auto hits = serial.TopK(RandomVector(8500 + i), 5);
      ASSERT_TRUE(hits.ok());
      EXPECT_LE(index.value()->size(), 32 + kOps);
    }
  });
  writer.join();
  eraser.join();
  banded_reader.join();
  serial_prober.join();

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
  ExpectMatchesFreshIndex(&store, *index.value(), 7000);
}

}  // namespace
}  // namespace ipsketch

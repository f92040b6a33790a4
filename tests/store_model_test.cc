// Model-based test of the catalog: seeded random sequences of insert,
// replace, erase, batch ingest, CompactifyInPlace, QuantizeStore,
// save → load, index attach/detach, exact and banded top-k (single, batch,
// and through FrontDoor futures), pairwise estimates and recall probes run
// against a trivial reference — a std::map of sketches built by the test's
// own family instance, ranked by brute-force pairwise Estimate with ties
// broken toward the smaller id.
//
// Exact answers must equal the reference bit for bit. Banded answers must
// be a subset of the exact answers (the whole catalog ranked), with
// bit-equal estimates and the same order: banding may only miss hits,
// never mis-score them. Each seed is one parameterized instance, so a
// failure names its seed and reruns alone with
// --gtest_filter='*RandomSequence/seed_N'.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/synthetic.h"
#include "index/banded_index.h"
#include "service/front_door.h"
#include "service/persistence.h"
#include "service/query_engine.h"
#include "service/sketch_store.h"
#include "service/thread_pool.h"
#include "sketch/family.h"

namespace ipsketch {
namespace {

constexpr uint64_t kDim = 512;
constexpr uint64_t kIdRange = 96;       // ids drawn from [0, kIdRange)
constexpr uint64_t kVectorPool = 40;    // few vectors → frequent exact ties
constexpr size_t kOpsPerSequence = 140;

SketchStoreOptions ModelStoreOptions() {
  SketchStoreOptions opts;
  opts.family = "wmh";
  opts.sketch.dimension = kDim;
  opts.sketch.num_samples = 64;
  opts.sketch.seed = 42;
  opts.num_shards = 4;
  return opts;
}

// A deterministic sparse vector with 24 non-zeros; `which` < kVectorPool.
SparseVector PoolVector(uint64_t which) {
  Xoshiro256StarStar rng(1000 + which);
  std::vector<Entry> entries;
  for (uint64_t index : SampleDistinctIndices(kDim, 24, 1000 + which)) {
    entries.push_back({index, rng.NextUnit() * 2.0 - 1.0});
  }
  return SparseVector::MakeOrDie(kDim, std::move(entries));
}

/// The reference catalog: id → sketch, plus the family instance that
/// sketches, quantizes and estimates for it (never the store's own).
struct Reference {
  std::shared_ptr<const SketchFamily> family;
  std::map<uint64_t, std::unique_ptr<AnySketch>> entries;

  std::unique_ptr<AnySketch> Sketch(const SparseVector& vec) const {
    auto sketcher = family->MakeSketcher();
    IPS_CHECK(sketcher.ok());
    std::unique_ptr<AnySketch> out = family->NewSketch();
    IPS_CHECK(sketcher.value()->Sketch(vec, out.get()).ok());
    return out;
  }

  double Estimate(const AnySketch& a, const AnySketch& b) const {
    auto est = family->Estimate(a, b);
    IPS_CHECK(est.ok());
    return est.value();
  }

  /// Brute-force top-k: every entry estimated pairwise, best first, ties
  /// toward the smaller id.
  std::vector<QueryHit> TopK(const AnySketch& query, size_t k) const {
    std::vector<QueryHit> all;
    for (const auto& [id, sketch] : entries) {
      all.push_back({id, Estimate(query, *sketch)});
    }
    std::sort(all.begin(), all.end(), [](const QueryHit& a, const QueryHit& b) {
      if (a.estimate != b.estimate) return a.estimate > b.estimate;
      return a.id < b.id;
    });
    if (all.size() > k) all.resize(k);
    return all;
  }

  std::string Bytes(const AnySketch& sketch) const {
    auto bytes = family->Serialize(sketch);
    IPS_CHECK(bytes.ok());
    return std::move(bytes).value();
  }
};

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

void ExpectExact(const std::vector<QueryHit>& got,
                 const std::vector<QueryHit>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "rank " << i;
    EXPECT_EQ(Bits(got[i].estimate), Bits(want[i].estimate)) << "rank " << i;
  }
}

/// Banded hits ⊆ the exact ranking of the whole catalog, bit-equal, in the
/// reference order, at most k of them.
void ExpectBandedSubset(const std::vector<QueryHit>& got,
                        const std::vector<QueryHit>& exact_all, size_t k) {
  ASSERT_LE(got.size(), std::min(k, exact_all.size()));
  std::map<uint64_t, size_t> rank_of;
  for (size_t i = 0; i < exact_all.size(); ++i) rank_of[exact_all[i].id] = i;
  size_t prev_rank = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    auto it = rank_of.find(got[i].id);
    ASSERT_NE(it, rank_of.end()) << "banded hit " << got[i].id
                                 << " is not in the catalog";
    EXPECT_EQ(Bits(got[i].estimate), Bits(exact_all[it->second].estimate))
        << "id " << got[i].id;
    if (i > 0) {
      EXPECT_GT(it->second, prev_rank) << "banded order differs at " << i;
    }
    prev_rank = it->second;
  }
}

class StoreModel {
 public:
  explicit StoreModel(uint64_t seed)
      : seed_(seed), rng_(seed), pool_(2), store_(MakeStore()) {
    auto family = MakeFamily(store_.options().family, store_.options().sketch);
    IPS_CHECK(family.ok());
    ref_.family = std::move(family).value();
    path_ = ::testing::TempDir() + "store_model_" + std::to_string(seed) +
            ".store";
  }

  ~StoreModel() { std::remove(path_.c_str()); }

  void Run() {
    for (size_t step = 0; step < kOpsPerSequence; ++step) {
      const uint64_t roll = rng_.NextBounded(100);
      SCOPED_TRACE("seed " + std::to_string(seed_) + " step " +
                   std::to_string(step) + " roll " + std::to_string(roll));
      if (roll < 25) {
        Insert();
      } else if (roll < 33) {
        Erase();
      } else if (roll < 37) {
        BatchInsert();
      } else if (roll < 39) {
        Compactify();
      } else if (roll < 41) {
        QuantizeCopy();
      } else if (roll < 44) {
        SaveLoad();
      } else if (roll < 49) {
        ToggleIndex();
      } else if (roll < 61) {
        TopK();
      } else if (roll < 67) {
        TopKSketchBatch();
      } else if (roll < 74) {
        Estimates();
      } else if (roll < 77) {
        Recall();
      } else {
        FrontDoorRound();
      }
      if (::testing::Test::HasFatalFailure()) return;
      CheckCatalog(step % 10 == 0);
      if (::testing::Test::HasFatalFailure()) return;
    }
    CheckCatalog(true);
  }

 private:
  static SketchStore MakeStore() {
    auto made = SketchStore::Make(ModelStoreOptions());
    IPS_CHECK(made.ok());
    return std::move(made).value();
  }

  uint64_t RandomId() { return rng_.NextBounded(kIdRange); }
  SparseVector RandomVector() {
    return PoolVector(rng_.NextBounded(kVectorPool));
  }
  size_t RandomK() { return static_cast<size_t>(rng_.NextBounded(14)); }

  // Insert or replace, through either the pre-built or the build path.
  void Insert() {
    const uint64_t id = RandomId();
    const SparseVector vec = RandomVector();
    std::unique_ptr<AnySketch> sketch = ref_.Sketch(vec);
    if (rng_.NextBounded(2) == 0) {
      ASSERT_TRUE(store_.Insert(id, sketch->Clone()).ok());
    } else {
      ASSERT_TRUE(store_.BuildAndInsert(id, vec).ok());
    }
    ref_.entries[id] = std::move(sketch);
  }

  void Erase() {
    const uint64_t id = RandomId();
    const Status st = store_.Erase(id);
    if (ref_.entries.erase(id) == 1) {
      ASSERT_TRUE(st.ok()) << st.ToString();
    } else {
      EXPECT_EQ(st.code(), StatusCode::kNotFound);
    }
  }

  void BatchInsert() {
    std::vector<std::pair<uint64_t, SparseVector>> batch;
    const size_t n = 1 + rng_.NextBounded(12);
    for (size_t i = 0; i < n; ++i) {
      batch.emplace_back(RandomId(), RandomVector());
    }
    ASSERT_TRUE(store_.BuildAndInsertBatch(batch, &pool_).ok());
    // Later entries win on duplicate ids — in the serial reference too.
    for (const auto& [id, vec] : batch) ref_.entries[id] = ref_.Sketch(vec);
  }

  std::shared_ptr<const SketchFamily> CompactFamily() const {
    auto made = MakeFamily("wmh_compact", ref_.family->options());
    IPS_CHECK(made.ok());
    return std::move(made).value();
  }

  void Compactify() {
    const Status st = store_.CompactifyInPlace("wmh_compact");
    if (index_ != nullptr || ref_.family->name() != "wmh") {
      EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
      return;
    }
    ASSERT_TRUE(st.ok()) << st.ToString();
    auto compact = CompactFamily();
    for (auto& [id, sketch] : ref_.entries) {
      auto quantized = QuantizeWmhSketch(*compact, *sketch);
      ASSERT_TRUE(quantized.ok());
      sketch = std::move(quantized).value();
    }
    ref_.family = std::move(compact);
    EXPECT_EQ(store_.family().name(), "wmh_compact");
  }

  // QuantizeStore leaves the source alone and returns the compact copy.
  void QuantizeCopy() {
    auto copy = QuantizeStore(store_, "wmh_compact");
    if (ref_.family->name() != "wmh") {
      EXPECT_EQ(copy.status().code(), StatusCode::kFailedPrecondition);
      return;
    }
    ASSERT_TRUE(copy.ok()) << copy.status().ToString();
    auto compact = CompactFamily();
    ASSERT_EQ(copy.value().size(), ref_.entries.size());
    for (const auto& [id, sketch] : ref_.entries) {
      auto got = copy.value().Lookup(id);
      ASSERT_TRUE(got.ok());
      auto want = QuantizeWmhSketch(*compact, *sketch);
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(compact->Serialize(*got.value()).value(),
                compact->Serialize(*want.value()).value());
    }
  }

  void SaveLoad() {
    const bool had_index = index_ != nullptr;
    index_.reset();  // a store with a listener attached must not be moved
    const std::string before = EncodeSketchStore(store_);
    ASSERT_TRUE(SaveSketchStore(store_, path_).ok());
    auto loaded = LoadSketchStore(path_);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    store_ = std::move(loaded).value();
    // The reloaded catalog re-encodes to the very same bytes.
    EXPECT_EQ(EncodeSketchStore(store_), before);
    if (had_index) AttachIndex();
  }

  void AttachIndex() {
    auto made = BandedIndex::MakeAttached(&store_, {/*bands=*/8, /*rows=*/2});
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    index_ = std::move(made).value();
  }

  void ToggleIndex() {
    if (index_ != nullptr) {
      index_.reset();
    } else {
      AttachIndex();
    }
  }

  ThreadPool* RandomPool() {
    return rng_.NextBounded(2) == 0 ? &pool_ : nullptr;
  }

  void CheckBanded(const AnySketch& query, size_t k,
                   const std::vector<QueryHit>& got) {
    if (index_ == nullptr) {
      // No index: the banded policy falls back to the exact scan.
      ExpectExact(got, ref_.TopK(query, k));
    } else {
      ExpectBandedSubset(got, ref_.TopK(query, ref_.entries.size()), k);
    }
  }

  // TopK (raw vector) and TopKSketch under the exact and banded policies.
  void TopK() {
    const SparseVector vec = RandomVector();
    const std::unique_ptr<AnySketch> query = ref_.Sketch(vec);
    const size_t k = RandomK();
    ThreadPool* pool = RandomPool();
    QueryEngine exact(&store_, pool);
    QueryEngine exact_indexed(&store_, pool, index_.get(),
                              IndexPolicy::kExactScan);
    QueryEngine banded(&store_, pool, index_.get(),
                       IndexPolicy::kBandedRerank);
    const std::vector<QueryHit> want = ref_.TopK(*query, k);

    auto a = exact.TopK(vec, k);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ExpectExact(a.value(), want);
    auto b = exact_indexed.TopKSketch(*query, k);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectExact(b.value(), want);
    auto c = banded.TopK(vec, k);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    CheckBanded(*query, k, c.value());
    auto d = banded.TopKSketch(*query, k);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    ExpectExact(d.value(), c.value());  // same index state, same answer
  }

  void TopKSketchBatch() {
    const size_t n = 1 + rng_.NextBounded(5);
    std::vector<std::unique_ptr<AnySketch>> owned;
    std::vector<const AnySketch*> queries;
    std::vector<size_t> ks;
    for (size_t i = 0; i < n; ++i) {
      owned.push_back(ref_.Sketch(RandomVector()));
      queries.push_back(owned.back().get());
      ks.push_back(RandomK());
    }
    const bool use_index = rng_.NextBounded(2) == 0;
    QueryEngine engine(&store_, RandomPool(), index_.get(),
                       use_index ? IndexPolicy::kBandedRerank
                                 : IndexPolicy::kExactScan);
    auto results = engine.TopKSketchBatch(queries, ks);
    ASSERT_EQ(results.size(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
      if (use_index) {
        CheckBanded(*queries[i], ks[i], results[i].value());
      } else {
        ExpectExact(results[i].value(), ref_.TopK(*queries[i], ks[i]));
      }
    }
  }

  void ExpectEstimate(uint64_t a, uint64_t b, const Result<double>& got) {
    auto ia = ref_.entries.find(a);
    auto ib = ref_.entries.find(b);
    if (ia == ref_.entries.end() || ib == ref_.entries.end()) {
      EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
      return;
    }
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(Bits(got.value()), Bits(ref_.Estimate(*ia->second, *ib->second)));
  }

  void Estimates() {
    QueryEngine engine(&store_, RandomPool());
    for (int i = 0; i < 4; ++i) {
      const uint64_t a = RandomId();
      const uint64_t b = RandomId();
      ExpectEstimate(a, b, engine.EstimateInnerProduct(a, b));
    }
  }

  // ProbeRecall = |banded ∩ exact| / |exact|, with exact from the reference.
  void Recall() {
    const SparseVector vec = RandomVector();
    const size_t k = 1 + RandomK();
    QueryEngine engine(&store_, RandomPool(), index_.get(),
                       IndexPolicy::kBandedRerank);
    auto recall = engine.ProbeRecall(vec, k);
    if (index_ == nullptr) {
      EXPECT_EQ(recall.status().code(), StatusCode::kFailedPrecondition);
      return;
    }
    ASSERT_TRUE(recall.ok()) << recall.status().ToString();
    const std::unique_ptr<AnySketch> query = ref_.Sketch(vec);
    const std::vector<QueryHit> exact = ref_.TopK(*query, k);
    if (exact.empty()) {
      EXPECT_EQ(recall.value(), 1.0);
      return;
    }
    auto banded = engine.TopKSketch(*query, k);
    ASSERT_TRUE(banded.ok());
    std::set<uint64_t> exact_ids;
    for (const QueryHit& hit : exact) exact_ids.insert(hit.id);
    size_t overlap = 0;
    for (const QueryHit& hit : banded.value()) {
      overlap += exact_ids.count(hit.id);
    }
    EXPECT_EQ(recall.value(), static_cast<double>(overlap) /
                                  static_cast<double>(exact.size()));
  }

  void FrontDoorRound() {
    const bool banded = index_ != nullptr && rng_.NextBounded(2) == 0;
    FrontDoor door(&store_, &pool_, {}, index_.get(),
                   banded ? IndexPolicy::kBandedRerank
                          : IndexPolicy::kExactScan);
    struct TopKCall {
      std::unique_ptr<AnySketch> query;
      size_t k;
      FrontDoorFuture<std::vector<QueryHit>> future;
    };
    struct EstimateCall {
      uint64_t a, b;
      FrontDoorFuture<double> future;
    };
    std::vector<TopKCall> topks;
    std::vector<EstimateCall> estimates;
    for (int i = 0; i < 6; ++i) {
      const SparseVector vec = RandomVector();
      std::unique_ptr<AnySketch> query = ref_.Sketch(vec);
      const size_t k = RandomK();
      auto future = (i % 2 == 0) ? door.SubmitTopK(vec, k)
                                 : door.SubmitTopKSketch(query->Clone(), k);
      topks.push_back({std::move(query), k, std::move(future)});
      const uint64_t a = RandomId();
      const uint64_t b = RandomId();
      estimates.push_back({a, b, door.SubmitEstimate(a, b)});
    }
    for (TopKCall& call : topks) {
      auto got = call.future.Take();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      if (banded) {
        CheckBanded(*call.query, call.k, got.value());
      } else {
        ExpectExact(got.value(), ref_.TopK(*call.query, call.k));
      }
    }
    for (EstimateCall& call : estimates) {
      ExpectEstimate(call.a, call.b, call.future.Take());
    }
  }

  // Size, ids and membership always; with `deep`, every stored sketch's
  // bytes and the index's resident count too.
  void CheckCatalog(bool deep) {
    ASSERT_EQ(store_.size(), ref_.entries.size());
    std::vector<uint64_t> ids;
    for (const auto& [id, sketch] : ref_.entries) ids.push_back(id);
    ASSERT_EQ(store_.Ids(), ids);
    EXPECT_EQ(store_.family().name(), ref_.family->name());
    if (index_ != nullptr) {
      EXPECT_EQ(index_->size(), ref_.entries.size());
    }
    if (!deep) return;
    for (uint64_t id = 0; id < kIdRange; ++id) {
      auto it = ref_.entries.find(id);
      EXPECT_EQ(store_.Contains(id), it != ref_.entries.end()) << "id " << id;
      auto got = store_.Lookup(id);
      if (it == ref_.entries.end()) {
        EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
        continue;
      }
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(ref_.Bytes(*got.value()), ref_.Bytes(*it->second))
          << "id " << id;
    }
    double resident = 0.0;
    for (const auto& [id, sketch] : ref_.entries) {
      resident += ref_.family->ResidentWords(*sketch).value();
    }
    EXPECT_DOUBLE_EQ(store_.TotalResidentWords(), resident);
  }

  const uint64_t seed_;
  Xoshiro256StarStar rng_;
  ThreadPool pool_;
  SketchStore store_;
  std::unique_ptr<BandedIndex> index_;  // declared after store_: dies first
  Reference ref_;
  std::string path_;
};

class StoreModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StoreModelTest, RandomSequence) { StoreModel(GetParam()).Run(); }

INSTANTIATE_TEST_SUITE_P(
    Seeds, StoreModelTest, ::testing::Range<uint64_t>(1, 25),
    [](const ::testing::TestParamInfo<uint64_t>& info) {
      return "seed_" + std::to_string(info.param);
    });

}  // namespace
}  // namespace ipsketch

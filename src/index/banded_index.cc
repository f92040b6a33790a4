#include "index/banded_index.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/rng.h"

namespace ipsketch {
namespace {

/// The salted key of one band: a Mix64 chain over the band's r collision
/// codes, seeded per band so the same run of codes files into different
/// buckets in different bands (and per store seed, so two stores never
/// share bucket geometry by accident).
uint64_t BandKey(const uint64_t* codes, size_t rows, size_t band,
                 uint64_t seed) {
  uint64_t h = Mix64(seed ^ static_cast<uint64_t>(band + 1));
  for (size_t i = 0; i < rows; ++i) h = Mix64(h ^ codes[i]);
  return h;
}

}  // namespace

Status BandedLshParams::Validate(size_t num_samples) const {
  if (bands == 0 || rows == 0) {
    return Status::InvalidArgument("bands and rows must be positive");
  }
  if (bands > num_samples / rows) {
    return Status::InvalidArgument(
        "bands * rows (" + std::to_string(bands) + " * " +
        std::to_string(rows) + ") exceeds the family's num_samples (" +
        std::to_string(num_samples) + ")");
  }
  return Status::Ok();
}

BandedIndex::BandedIndex(SketchStore* store, const BandedLshParams& params)
    : store_(store),
      params_(params),
      key_seed_(store->options().sketch.seed) {
  shards_.reserve(store->num_shards());
  for (size_t i = 0; i < store->num_shards(); ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  auto& registry = metrics::MetricsRegistry::Global();
  inserts_ = &registry.GetCounter("ipsketch_index_inserts_total",
                                  "Sketches filed into banded indexes");
  erases_ = &registry.GetCounter("ipsketch_index_erases_total",
                                 "Sketches removed from banded indexes");
  buckets_probed_ = &registry.GetCounter(
      "ipsketch_index_buckets_probed_total",
      "Non-empty band buckets hit by index probes");
  candidates_ = &registry.GetCounter(
      "ipsketch_index_candidates_total",
      "Deduped candidates re-ranked by index probes");
  size_gauge_ = &registry.GetGauge("ipsketch_index_size",
                                   "Live sketches across banded indexes");
}

Result<std::unique_ptr<BandedIndex>> BandedIndex::MakeAttached(
    SketchStore* store, const BandedLshParams& params) {
  IPS_CHECK(store != nullptr);
  const SketchFamily& family = store->family();
  if (!family.supports_banding()) {
    return Status::FailedPrecondition(
        "family '" + family.name() +
        "' does not support LSH banding (coordinates are not "
        "positionally coordinated samples)");
  }
  IPS_RETURN_IF_ERROR(params.Validate(family.options().num_samples));
  std::unique_ptr<BandedIndex> index(new BandedIndex(store, params));
  for (size_t s = 0; s < index->shards_.size(); ++s) {
    Shard& shard = *index->shards_[s];
    MutexLock lock(&shard.mu);
    index->CatchUpLocked(shard, s);
  }
  return index;
}

BandedIndex::~BandedIndex() {
  // Counts what was filed without catching up: the store may already be
  // gone.
  int64_t filed = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    if (shard->built != nullptr) {
      filed += static_cast<int64_t>(shard->built->ids.size());
    }
  }
  if (filed != 0) size_gauge_->Add(-filed);
}

size_t BandedIndex::size() const {
  size_t total = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    MutexLock lock(&shard.mu);
    total += CatchUpLocked(shard, s)->ids.size();
  }
  return total;
}

Status BandedIndex::BandKeys(const SketchFamily& family,
                             const AnySketch& sketch,
                             std::vector<uint64_t>* keys) const {
  std::vector<uint64_t> codes;
  IPS_RETURN_IF_ERROR(family.AppendLshCodes(sketch, &codes));
  keys->clear();
  keys->reserve(params_.bands);
  for (size_t j = 0; j < params_.bands; ++j) {
    keys->push_back(
        BandKey(codes.data() + j * params_.rows, params_.rows, j, key_seed_));
  }
  return Status::Ok();
}

Status BandedIndex::QueryBandKeys(const AnySketch& query,
                                  std::vector<uint64_t>* keys) const {
  return BandKeys(store_->family(), query, keys);
}

ShardViewPtr BandedIndex::CatchUpLocked(Shard& shard,
                                        size_t shard_index) const {
  ShardViewPtr view = store_->PinShard(shard_index);
  // Pointers, not epochs: a store move-assigned over this one restarts its
  // epochs at 1.
  if (view == shard.built) return view;
  const ShardView* old = shard.built.get();
  const size_t old_size = old == nullptr ? 0 : old->ids.size();
  uint64_t filed = 0;
  uint64_t unfiled = 0;
  if (old != nullptr && old->family != view->family) {
    // A new family (compactify, or another store moved in) replaced every
    // sketch: drop all buckets at once rather than unfile id by id.
    unfiled = old_size;
    shard.buckets.clear();
    old = nullptr;
  }
  // Stored sketches all passed the store's CheckCompatible, so computing
  // their keys cannot fail. (A plain reference: lambdas do not inherit the
  // held lock in clang's thread-safety analysis.)
  auto& buckets = shard.buckets;
  std::vector<uint64_t> keys;
  auto file = [&](size_t j) {
    IPS_CHECK(BandKeys(*view->family, *view->sketches[j], &keys).ok());
    for (uint64_t key : keys) buckets[key].push_back(view->ids[j]);
    ++filed;
  };
  auto unfile = [&](size_t i) {
    IPS_CHECK(BandKeys(*old->family, *old->sketches[i], &keys).ok());
    for (uint64_t key : keys) {
      // A key repeated across bands emptied its bucket on the first pass.
      auto it = buckets.find(key);
      if (it == buckets.end()) continue;
      std::erase(it->second, old->ids[i]);
      if (it->second.empty()) buckets.erase(it);
    }
  };
  // Both views are sorted by id: one merge walk finds every difference.
  const size_t n_old = old == nullptr ? 0 : old->ids.size();
  const size_t n_new = view->ids.size();
  size_t i = 0;
  size_t j = 0;
  while (i < n_old || j < n_new) {
    if (j == n_new || (i < n_old && old->ids[i] < view->ids[j])) {
      unfile(i++);
      ++unfiled;
    } else if (i == n_old || view->ids[j] < old->ids[i]) {
      file(j++);
    } else {
      // Same id: refile it only if it was replaced (one insert, as the
      // store counts a replace). The built view still owns the old sketch,
      // so a new sketch cannot reuse its address.
      if (old->sketches[i] != view->sketches[j]) {
        unfile(i);
        file(j);
      }
      ++i;
      ++j;
    }
  }
  inserts_->Add(filed);
  erases_->Add(unfiled);
  size_gauge_->Add(static_cast<int64_t>(n_new) -
                   static_cast<int64_t>(old_size));
  shard.built = view;
  return view;
}

Status BandedIndex::ProbeShard(const AnySketch& query,
                               const std::vector<uint64_t>& keys,
                               size_t shard_index, TopKHeap* heap,
                               IndexProbeStats* stats) const {
  IPS_CHECK(shard_index < shards_.size());
  IPS_RETURN_IF_ERROR(store_->family().CheckCompatible(query));
  std::vector<uint64_t> candidates;
  uint64_t buckets_hit = 0;
  // Pinned before the index shard lock, so concurrent probes of a shard
  // whose view has not moved hold that lock only to gather ids.
  ShardViewPtr view = store_->PinShard(shard_index);
  {
    Shard& shard = *shards_[shard_index];
    MutexLock lock(&shard.mu);
    if (view != shard.built) view = CatchUpLocked(shard, shard_index);
    for (uint64_t key : keys) {
      auto it = shard.buckets.find(key);
      if (it == shard.buckets.end()) continue;
      ++buckets_hit;
      candidates.insert(candidates.end(), it->second.begin(),
                        it->second.end());
    }
  }
  stats->buckets_probed += buckets_hit;
  buckets_probed_->Add(buckets_hit);
  if (candidates.empty()) return Status::Ok();
  // A sketch colliding in several bands appears once per collision; dedup
  // before the (much more expensive) re-rank.
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  for (uint64_t id : candidates) {
    // The buckets were built from this very view, so every id is in it.
    const AnySketch* sketch = view->Find(id);
    IPS_CHECK(sketch != nullptr);
    auto est = view->family->Estimate(query, *sketch);
    IPS_RETURN_IF_ERROR(est.status());
    heap->Offer(static_cast<size_t>(id), est.value());
  }
  stats->candidates += candidates.size();
  candidates_->Add(candidates.size());
  return Status::Ok();
}

}  // namespace ipsketch

#include "service/sketch_store.h"

#include <algorithm>
#include <unordered_map>

#include "common/rng.h"

namespace ipsketch {

const AnySketch* ShardView::Find(uint64_t id) const {
  auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it == ids.end() || *it != id) return nullptr;
  return sketches[static_cast<size_t>(it - ids.begin())].get();
}

Status SketchStoreOptions::Validate() const {
  if (family.empty()) {
    return Status::InvalidArgument("store family name must be non-empty");
  }
  if (sketch.dimension == 0) {
    return Status::InvalidArgument("store dimension must be positive");
  }
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  return Status::Ok();
}

SketchStore::SketchStore(SketchStoreOptions options,
                         std::shared_ptr<const SketchFamily> family)
    : options_(std::move(options)), family_(std::move(family)) {
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    // Publish the empty epoch-0 view so PinShard never observes null.
    auto empty = std::make_shared<ShardView>();
    empty->family = family_;
    shards_.back()->view.store(std::move(empty));
  }
  auto& registry = metrics::MetricsRegistry::Global();
  inserts_ = &registry.GetCounter("ipsketch_store_inserts_total",
                                  "Sketches inserted (including replaces)");
  erases_ = &registry.GetCounter("ipsketch_store_erases_total",
                                 "Sketches erased");
  ingest_ns_ = &registry.GetHistogram(
      "ipsketch_store_ingest_ns",
      "Per-vector ingest latency: sketch build plus shard insert");
  size_gauge_ = &registry.GetGauge("ipsketch_store_size",
                                   "Live sketches across all stores");
  shard_occupancy_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    shard_occupancy_.push_back(&registry.GetGauge(
        "ipsketch_store_shard_occupancy{shard=\"" + std::to_string(i) + "\"}",
        "Live sketches per shard index (skew = max/mean across shards)"));
  }
}

void SketchStore::RetireOccupancy() {
  for (size_t s = 0; s < shards_.size(); ++s) {
    const int64_t n = static_cast<int64_t>(PinShard(s)->ids.size());
    if (n == 0) continue;
    size_gauge_->Add(-n);
    shard_occupancy_[s]->Add(-n);
  }
}

SketchStore::~SketchStore() { RetireOccupancy(); }

SketchStore& SketchStore::operator=(SketchStore&& other) noexcept {
  if (this != &other) {
    RetireOccupancy();
    options_ = std::move(other.options_);
    family_ = std::move(other.family_);
    shards_ = std::move(other.shards_);
    inserts_ = other.inserts_;
    erases_ = other.erases_;
    ingest_ns_ = other.ingest_ns_;
    size_gauge_ = other.size_gauge_;
    shard_occupancy_ = std::move(other.shard_occupancy_);
    // The header contract forbids moving while a listener is attached (the
    // listener points at the old store object); transfer anyway so the
    // fields stay coherent.
    listener_mu_ = std::move(other.listener_mu_);
    listener_ = other.listener_;
    other.listener_ = nullptr;
  }
  return *this;
}

Result<SketchStore> SketchStore::Make(const SketchStoreOptions& options) {
  IPS_RETURN_IF_ERROR(options.Validate());
  auto family = MakeFamily(options.family, options.sketch);
  IPS_RETURN_IF_ERROR(family.status());
  SketchStoreOptions resolved = options;
  // The family resolves option defaults (e.g. WMH's L); echo the resolved
  // identity back into the store options so every sketch — including ones
  // built by callers from options() — agrees on it, and so it survives
  // persistence verbatim.
  resolved.sketch = family.value()->options();
  return SketchStore(std::move(resolved), std::move(family).value());
}

bool SketchStore::PublishInsertLocked(
    Shard& shard, uint64_t id,
    const std::shared_ptr<const AnySketch>& sketch) {
  const ShardViewPtr prev = shard.view.load(std::memory_order_relaxed);
  auto next = std::make_shared<ShardView>();
  next->epoch = ++shard.version;
  next->family = family_;
  const auto pos = std::lower_bound(prev->ids.begin(), prev->ids.end(), id);
  const size_t i = static_cast<size_t>(pos - prev->ids.begin());
  const bool replace = pos != prev->ids.end() && *pos == id;
  const size_t new_size = prev->ids.size() + (replace ? 0 : 1);
  next->ids.reserve(new_size);
  next->sketches.reserve(new_size);
  next->ids.assign(prev->ids.begin(), pos);
  next->sketches.assign(prev->sketches.begin(), prev->sketches.begin() + i);
  next->ids.push_back(id);
  next->sketches.push_back(sketch);
  next->ids.insert(next->ids.end(), pos + (replace ? 1 : 0), prev->ids.end());
  next->sketches.insert(next->sketches.end(),
                        prev->sketches.begin() + i + (replace ? 1 : 0),
                        prev->sketches.end());
  shard.view.store(std::move(next));
  return !replace;
}

void SketchStore::PublishEraseLocked(Shard& shard, uint64_t id) {
  const ShardViewPtr prev = shard.view.load(std::memory_order_relaxed);
  auto next = std::make_shared<ShardView>();
  next->epoch = ++shard.version;
  next->family = family_;
  const auto pos = std::lower_bound(prev->ids.begin(), prev->ids.end(), id);
  IPS_CHECK(pos != prev->ids.end() && *pos == id);
  const size_t i = static_cast<size_t>(pos - prev->ids.begin());
  next->ids.reserve(prev->ids.size() - 1);
  next->sketches.reserve(prev->ids.size() - 1);
  next->ids.assign(prev->ids.begin(), pos);
  next->ids.insert(next->ids.end(), pos + 1, prev->ids.end());
  next->sketches.assign(prev->sketches.begin(), prev->sketches.begin() + i);
  next->sketches.insert(next->sketches.end(), prev->sketches.begin() + i + 1,
                        prev->sketches.end());
  shard.view.store(std::move(next));
}

ShardViewPtr SketchStore::PinShard(size_t shard) const {
  IPS_CHECK(shard < shards_.size());
  return shards_[shard]->view.load(std::memory_order_acquire);
}

std::vector<ShardViewPtr> SketchStore::PinStore() const {
  std::vector<ShardViewPtr> views;
  views.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) views.push_back(PinShard(s));
  return views;
}

size_t SketchStore::ShardOf(uint64_t id) const {
  // Mix first: sequential ids would otherwise all land in shard id % N for
  // small N and defeat the sharding.
  return static_cast<size_t>(Mix64(id) % shards_.size());
}

size_t SketchStore::size() const {
  size_t total = 0;
  for (size_t s = 0; s < shards_.size(); ++s) total += PinShard(s)->ids.size();
  return total;
}

Status SketchStore::Insert(uint64_t id, std::unique_ptr<AnySketch> sketch) {
  if (sketch == nullptr) {
    return Status::InvalidArgument("cannot insert a null sketch");
  }
  IPS_RETURN_IF_ERROR(family_->CheckCompatible(*sketch));
  const size_t shard_index = ShardOf(id);
  Shard& shard = *shards_[shard_index];
  bool is_new = false;
  {
    MutexLock lock(&shard.mu);
    std::shared_ptr<const AnySketch> shared = std::move(sketch);
    is_new = PublishInsertLocked(shard, id, shared);
    if (shard.listener != nullptr) shard.listener->OnInsert(id, *shared);
  }
  inserts_->Add(1);
  if (is_new) {
    size_gauge_->Add(1);
    shard_occupancy_[shard_index]->Add(1);
  }
  return Status::Ok();
}

Status SketchStore::BuildAndInsert(uint64_t id, const SparseVector& vec) {
  metrics::ScopedLatency ingest_timer(ingest_ns_);
  auto made = family_->MakeSketcher();
  IPS_RETURN_IF_ERROR(made.status());
  std::unique_ptr<AnySketch> sketch = family_->NewSketch();
  IPS_RETURN_IF_ERROR(made.value()->Sketch(vec, sketch.get()));
  return Insert(id, std::move(sketch));
}

Status SketchStore::BuildAndInsertBatch(
    const std::vector<std::pair<uint64_t, SparseVector>>& batch,
    ThreadPool* pool) {
  if (pool == nullptr || pool->num_threads() == 1 || batch.size() <= 1) {
    // One sketcher for the whole batch — the same scratch reuse the chunked
    // path gets, so serial and parallel ingest differ only in parallelism.
    auto made = family_->MakeSketcher();
    IPS_RETURN_IF_ERROR(made.status());
    std::unique_ptr<AnySketch> sketch = family_->NewSketch();
    for (const auto& [id, vec] : batch) {
      metrics::ScopedLatency ingest_timer(ingest_ns_);
      IPS_RETURN_IF_ERROR(made.value()->Sketch(vec, sketch.get()));
      IPS_RETURN_IF_ERROR(Insert(id, std::move(sketch)));
      sketch = family_->NewSketch();
    }
    return Status::Ok();
  }

  // Carve the batch into one contiguous chunk per worker: each chunk gets
  // its own Sketcher (scratch reuse across its vectors) and inserts as it
  // goes, so sketching — the expensive part — runs fully in parallel and
  // shard locks are held only for view publication. Chunks share no state
  // except the first-error slot. Chunks insert in no fixed order, so an
  // entry whose id reappears later in the batch is sketched (its errors
  // still count) but not inserted: the later entry wins, as in the serial
  // path.
  std::unordered_map<uint64_t, size_t> last_of;
  last_of.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) last_of[batch[i].first] = i;
  const size_t chunks = std::min(batch.size(), pool->num_threads());
  const size_t per_chunk = (batch.size() + chunks - 1) / chunks;
  // kLeaf: taken only from chunk bodies, which hold nothing at that point.
  Mutex error_mu;
  Status first_error;
  pool->ParallelFor(chunks, [&](size_t c) {
    const size_t begin = c * per_chunk;
    const size_t end = std::min(begin + per_chunk, batch.size());
    auto made = family_->MakeSketcher();
    if (!made.ok()) {
      MutexLock lock(&error_mu);
      if (first_error.ok()) first_error = made.status();
      return;
    }
    for (size_t i = begin; i < end; ++i) {
      const auto& [id, vec] = batch[i];
      metrics::ScopedLatency ingest_timer(ingest_ns_);
      std::unique_ptr<AnySketch> sketch = family_->NewSketch();
      Status st = made.value()->Sketch(vec, sketch.get());
      if (st.ok() && last_of.at(id) == i) st = Insert(id, std::move(sketch));
      if (!st.ok()) {
        MutexLock lock(&error_mu);
        if (first_error.ok()) first_error = st;
        return;
      }
    }
  });
  MutexLock lock(&error_mu);
  return first_error;
}

bool SketchStore::Contains(uint64_t id) const {
  return PinShard(ShardOf(id))->Find(id) != nullptr;
}

Result<std::unique_ptr<AnySketch>> SketchStore::Lookup(uint64_t id) const {
  const ShardViewPtr view = PinShard(ShardOf(id));
  const AnySketch* sketch = view->Find(id);
  if (sketch == nullptr) {
    return Status::NotFound("no sketch stored under id " + std::to_string(id));
  }
  return sketch->Clone();
}

Status SketchStore::Erase(uint64_t id) {
  const size_t shard_index = ShardOf(id);
  Shard& shard = *shards_[shard_index];
  {
    MutexLock lock(&shard.mu);
    if (shard.view.load(std::memory_order_relaxed)->Find(id) == nullptr) {
      return Status::NotFound("no sketch stored under id " +
                              std::to_string(id));
    }
    if (shard.listener != nullptr) shard.listener->OnErase(id);
    PublishEraseLocked(shard, id);
  }
  erases_->Add(1);
  size_gauge_->Add(-1);
  shard_occupancy_[shard_index]->Add(-1);
  return Status::Ok();
}

Status SketchStore::AttachListener(Listener* listener) {
  if (listener == nullptr) {
    return Status::InvalidArgument("cannot attach a null listener");
  }
  MutexLock attach_lock(&*listener_mu_);
  if (listener_ != nullptr) {
    return Status::FailedPrecondition(
        "a mutation listener is already attached");
  }
  listener_ = listener;
  // Publish + replay shard by shard under one lock hold each: once a
  // shard's mirror is set, every later mutation of that shard notifies, and
  // everything already resident is replayed now — exactly-once per entry.
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    shard->listener = listener;
    const ShardViewPtr view = shard->view.load(std::memory_order_relaxed);
    for (size_t i = 0; i < view->ids.size(); ++i) {
      listener->OnInsert(view->ids[i], *view->sketches[i]);
    }
  }
  return Status::Ok();
}

Status SketchStore::DetachListener(Listener* listener) {
  MutexLock attach_lock(&*listener_mu_);
  if (listener == nullptr || listener_ != listener) {
    return Status::InvalidArgument("listener is not the attached one");
  }
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    shard->listener = nullptr;
  }
  listener_ = nullptr;
  return Status::Ok();
}

std::vector<StoreEntry> SketchStore::Snapshot() const {
  std::vector<StoreEntry> out;
  for (const ShardViewPtr& view : PinStore()) {
    for (size_t i = 0; i < view->ids.size(); ++i) {
      out.push_back({view->ids[i], view->sketches[i]->Clone()});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const StoreEntry& a, const StoreEntry& b) { return a.id < b.id; });
  return out;
}

std::vector<uint64_t> SketchStore::Ids() const {
  std::vector<uint64_t> out;
  for (const ShardViewPtr& view : PinStore()) {
    out.insert(out.end(), view->ids.begin(), view->ids.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

double SketchStore::TotalStorageWords() const {
  double total = 0.0;
  for (const ShardViewPtr& view : PinStore()) {
    for (const auto& sketch : view->sketches) {
      // Every stored sketch passed CheckCompatible on insert, so the
      // family-side cast cannot fail.
      total += view->family->StorageWords(*sketch).value();
    }
  }
  return total;
}

double SketchStore::TotalResidentWords() const {
  double total = 0.0;
  for (const ShardViewPtr& view : PinStore()) {
    for (const auto& sketch : view->sketches) {
      total += view->family->ResidentWords(*sketch).value();
    }
  }
  return total;
}

namespace {

/// Ok iff `family` is one of the quantized WMH encodings — identified by
/// storage class, so the check stays registry-driven.
Status CheckQuantizedTarget(const SketchFamily& family) {
  const StorageClass sc = family.storage_class();
  if (sc != StorageClass::kCompactSamplingWithNorm &&
      sc != StorageClass::kBbitSamplingWithNorm) {
    return Status::InvalidArgument(
        "target family '" + family.name() +
        "' is not a quantized WMH encoding (expected wmh_compact or "
        "wmh_bbit)");
  }
  return Status::Ok();
}

}  // namespace

Status SketchStore::CompactifyInPlace(
    const std::string& target_family,
    const std::map<std::string, std::string>& extra_params) {
  if (family_->name() != "wmh") {
    return Status::FailedPrecondition(
        "CompactifyInPlace requires a full-precision 'wmh' store; this "
        "store holds '" +
        family_->name() + "'");
  }
  {
    // A listener mirrors the current family's sketches; swapping the family
    // identity under it would corrupt the mirror. Detach first.
    MutexLock attach_lock(&*listener_mu_);
    if (listener_ != nullptr) {
      return Status::FailedPrecondition(
          "CompactifyInPlace cannot run while a mutation listener is "
          "attached; detach it first");
    }
  }
  // The target inherits this store's fully resolved sketch options (seed,
  // L, engine, ...) so the quantized sketches land on the same identity.
  FamilyOptions target_options = options_.sketch;
  for (const auto& [key, value] : extra_params) {
    target_options.params[key] = value;
  }
  auto made = MakeFamily(target_family, target_options);
  IPS_RETURN_IF_ERROR(made.status());
  IPS_RETURN_IF_ERROR(CheckQuantizedTarget(*made.value()));

  // Stage every shard's successor view first so any failure leaves the
  // store unchanged, then commit. Callers quiesce writers, so the views
  // staged from are still current at commit (see the header contract).
  std::vector<std::shared_ptr<ShardView>> staged;
  staged.reserve(shards_.size());
  for (const ShardViewPtr& view : PinStore()) {
    auto next = std::make_shared<ShardView>();
    next->family = made.value();
    next->ids = view->ids;
    next->sketches.reserve(view->sketches.size());
    for (const auto& sketch : view->sketches) {
      auto quantized = QuantizeWmhSketch(*made.value(), *sketch);
      IPS_RETURN_IF_ERROR(quantized.status());
      next->sketches.push_back(std::move(quantized).value());
    }
    staged.push_back(std::move(next));
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    MutexLock lock(&shard.mu);
    // Republish under the *target* family: a view pinned before this line
    // keeps serving the old family + old sketches coherently, a view pinned
    // after serves the compact pair — never a mix.
    staged[s]->epoch = ++shard.version;
    shard.view.store(std::move(staged[s]));
  }
  family_ = std::move(made).value();
  options_.family = family_->name();
  options_.sketch = family_->options();
  return Status::Ok();
}

Result<SketchStore> QuantizeStore(
    const SketchStore& source, const std::string& target_family,
    const std::map<std::string, std::string>& extra_params) {
  if (source.family().name() != "wmh") {
    return Status::FailedPrecondition(
        "QuantizeStore requires a full-precision 'wmh' store; the source "
        "holds '" +
        source.family().name() + "'");
  }
  SketchStoreOptions target_options = source.options();
  target_options.family = target_family;
  for (const auto& [key, value] : extra_params) {
    target_options.sketch.params[key] = value;
  }
  auto made = SketchStore::Make(target_options);
  IPS_RETURN_IF_ERROR(made.status());
  SketchStore out = std::move(made).value();
  IPS_RETURN_IF_ERROR(CheckQuantizedTarget(out.family()));
  // Quantize straight off the pinned source views: only the compact forms
  // are materialized (peak memory stays source + compact copy), and no
  // source shard lock is held, so inserting into `out` nests no kStoreShard
  // locks.
  for (const ShardViewPtr& view : source.PinStore()) {
    for (size_t i = 0; i < view->ids.size(); ++i) {
      auto quantized = QuantizeWmhSketch(out.family(), *view->sketches[i]);
      IPS_RETURN_IF_ERROR(quantized.status());
      IPS_RETURN_IF_ERROR(
          out.Insert(view->ids[i], std::move(quantized).value()));
    }
  }
  return out;
}

}  // namespace ipsketch

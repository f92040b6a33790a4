// A sharded, thread-safe collection of sketches keyed by vector id — the
// catalog side of the dataset-search workload (§1.2): every dataset in the
// corpus is sketched once at ingest time and queries later run against
// sketches only.
//
// The store is *family-generic*: it is built from a family name ("wmh",
// "cs", ...) plus FamilyOptions through the sketch/family.h registry and
// handles sketches only through the polymorphic SketchFamily interface, so
// a CountSketch catalog and a Weighted MinHash catalog run through exactly
// the same code.
//
// Concurrency model: N shards (hash-on-id). Each shard's contents exist
// only as its published, immutable ShardView: writers serialize on the
// shard mutex and publish a copy-on-write successor view, and every read
// (Contains, Lookup, size, Ids, Snapshot, query scans) pins the current
// view with one atomic load and never takes the shard mutex (PinShard; see
// docs/ARCHITECTURE.md's snapshot-epoch protocol). Writers to different
// shards never contend, and readers never contend with anyone. Batch
// ingest sketches *outside* any lock (sketching is the expensive part)
// with one family Sketcher per worker thread, then takes each shard lock
// only for the view publication.
//
// Every sketch in a store shares the family's resolved options — the
// estimator's compatibility requirement — enforced at construction and on
// every insert through SketchFamily::CheckCompatible.

#ifndef IPSKETCH_SERVICE_SKETCH_STORE_H_
#define IPSKETCH_SERVICE_SKETCH_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "service/metrics.h"
#include "service/thread_pool.h"
#include "sketch/family.h"
#include "vector/sparse_vector.h"

namespace ipsketch {

/// Configuration for `SketchStore::Make`.
struct SketchStoreOptions {
  /// Registry key of the sketch family every entry is built with.
  std::string family = "wmh";
  /// Family options. `sketch.dimension` is required (> 0): sketches of
  /// different dimensions are not comparable. Family defaults (e.g. WMH's
  /// L = DefaultL(dimension)) are resolved once, at Make, so the resolved
  /// values are part of the store's identity and survive persistence.
  FamilyOptions sketch;
  /// Shard count. More shards = less write contention; 16 is plenty below
  /// a few dozen threads. Must be positive.
  size_t num_shards = 16;

  /// Validates field ranges (family-specific checks happen in Make).
  Status Validate() const;
};

/// One (id, sketch) element of a store snapshot.
struct StoreEntry {
  uint64_t id = 0;
  std::unique_ptr<AnySketch> sketch;
};

/// An immutable point-in-time view of one shard — the store's only
/// representation of its contents. Writers copy-on-write: every mutation
/// builds the successor view under the shard lock and publishes it with
/// one atomic shared_ptr swap, so readers pin an epoch with a single atomic
/// load and never touch the shard mutex (RCU-style; a pinned view keeps its
/// sketches alive however many epochs the shard advances past it).
///
/// `family` is the store's family at publication time, so a pinned view
/// stays internally consistent — sketches and the estimator that understands
/// them travel together — even across CompactifyInPlace.
struct ShardView {
  /// Per-shard publication sequence number; the empty pre-insert view is
  /// epoch 0 and every mutation increments it.
  uint64_t epoch = 0;
  std::shared_ptr<const SketchFamily> family;
  /// Sorted ascending; parallel to `sketches`.
  std::vector<uint64_t> ids;
  std::vector<std::shared_ptr<const AnySketch>> sketches;

  /// The sketch stored under `id`, or nullptr (binary search over `ids`).
  const AnySketch* Find(uint64_t id) const;
};

using ShardViewPtr = std::shared_ptr<const ShardView>;

/// The sharded concurrent map. All public methods are thread-safe.
class SketchStore {
 public:
  /// Receives synchronous mutation notifications (see AttachListener). Both
  /// callbacks run *under the shard lock* of the mutated id's shard, so a
  /// listener observing one shard's stream sees its mutations in order and
  /// can mirror the shard consistently. Callbacks must be fast and must
  /// never mutate the store (the lock is held — deadlock); reads take no
  /// shard lock and are safe. OnInsert already sees the new entry.
  class Listener {
   public:
    virtual ~Listener() = default;
    /// After `sketch` was stored (insert or replace) under `id`.
    virtual void OnInsert(uint64_t id, const AnySketch& sketch) = 0;
    /// Before `id` is removed.
    virtual void OnErase(uint64_t id) = 0;
  };

  /// Builds the family from the registry (resolving option defaults) and an
  /// empty store around it.
  static Result<SketchStore> Make(const SketchStoreOptions& options);

  SketchStore(SketchStore&&) = default;
  /// Move assignment first retires the target's sketches from the
  /// occupancy gauges (they are being destroyed), then adopts the source's.
  /// Analysis escape: a move requires external exclusivity over both stores
  /// (the header forbids moving with a listener attached or any concurrent
  /// user), so the listener fields are transferred without their mutex —
  /// which is itself being transferred.
  SketchStore& operator=(SketchStore&& other) noexcept
      IPS_NO_THREAD_SAFETY_ANALYSIS;

  /// Subtracts this store's sketches from the process-wide size/occupancy
  /// gauges (a moved-from store holds none and subtracts nothing).
  ~SketchStore();

  /// The store's options with family defaults resolved.
  const SketchStoreOptions& options() const { return options_; }

  /// The sketch family every entry belongs to. Valid for the store's
  /// lifetime; query engines estimate through it.
  const SketchFamily& family() const { return *family_; }

  /// Number of shards.
  size_t num_shards() const { return shards_.size(); }

  /// Total number of stored sketches.
  size_t size() const;

  /// Inserts (or replaces) a pre-built sketch. Fails with InvalidArgument
  /// if the sketch is not compatible with the store's family options.
  Status Insert(uint64_t id, std::unique_ptr<AnySketch> sketch);

  /// Sketches `vec` with the store's family and inserts it under `id`.
  /// Callers on a hot path that already hold a Sketcher should sketch
  /// themselves and call Insert; this is the convenient serial form.
  Status BuildAndInsert(uint64_t id, const SparseVector& vec);

  /// Sketches and inserts a whole batch, fanning the sketching work across
  /// `pool` (one Sketcher per worker; nullptr = sketch serially on the
  /// calling thread). Later batch entries win on duplicate ids. Returns the
  /// first error encountered; entries after an error in the same batch may
  /// or may not be inserted.
  Status BuildAndInsertBatch(
      const std::vector<std::pair<uint64_t, SparseVector>>& batch,
      ThreadPool* pool);

  /// True iff `id` is present.
  bool Contains(uint64_t id) const;

  /// Copies out the sketch stored under `id`; NotFound if absent.
  Result<std::unique_ptr<AnySketch>> Lookup(uint64_t id) const;

  /// Removes `id`. NotFound if absent.
  Status Erase(uint64_t id);

  /// Attaches the single mutation listener and replays every resident entry
  /// through OnInsert (shard by shard, under each shard's lock). Each entry
  /// is delivered exactly once: the listener pointer is published under the
  /// same shard-lock hold that replays the shard, so an entry is either
  /// replayed then or notifies on a later mutation, never both.
  /// FailedPrecondition if a listener is already attached. Detach before
  /// destroying either side; the store must not be moved from or
  /// compactified while a listener is attached.
  Status AttachListener(Listener* listener);

  /// Detaches `listener`. InvalidArgument if it is not the attached one.
  Status DetachListener(Listener* listener);

  /// Pins the currently published view of one shard: one atomic load, no
  /// shard-mutex acquisition, never null. The view is immutable and sorted
  /// by id; holding the pointer keeps its epoch's sketches alive while
  /// writers publish newer epochs. This is the read path heavy query
  /// traffic should use — it cannot contend with ingest.
  ShardViewPtr PinShard(size_t shard) const;

  /// Pins every shard's current view. Each view is internally consistent;
  /// the set is *not* a point-in-time image across shards — concurrent
  /// writers may publish between two shards' pins.
  std::vector<ShardViewPtr> PinStore() const;

  /// All (id, sketch) pairs, sorted by id: clones of PinStore()'s entries.
  std::vector<StoreEntry> Snapshot() const;

  /// All ids, sorted.
  std::vector<uint64_t> Ids() const;

  /// The shard an id maps to (stable across runs — persistence relies on a
  /// load with equal num_shards reproducing the layout).
  size_t ShardOf(uint64_t id) const;

  /// Sum of family().StorageWords over every stored sketch — the catalog's
  /// size under the paper's §5 accounting model.
  double TotalStorageWords() const;

  /// Sum of family().ResidentWords over every stored sketch — the actual
  /// in-memory catalog footprint in 64-bit words. For a full-precision
  /// "wmh" store this is ~2 words/sample; CompactifyInPlace halves it.
  double TotalResidentWords() const;

  /// Converts this full-precision "wmh" catalog to a compact one in place:
  /// every stored sketch is quantized (a cheap post-pass — ingest stays on
  /// the fast kDart path) and the store's family becomes `target_family`
  /// ("wmh_compact" or "wmh_bbit"; `extra_params` adds quantizer knobs such
  /// as {"bits", "8"}). The target inherits this store's resolved sketch
  /// options, so a reopened compact catalog matches field for field.
  ///
  /// One-shot and NOT concurrency-safe: the family identity swaps at the
  /// end, so callers must quiesce all readers and writers for the duration
  /// (the intended shape is load → compactify → serve). All-or-nothing: on
  /// any error the store is left unchanged. FailedPrecondition if the store
  /// does not hold full-precision "wmh" sketches; InvalidArgument for a
  /// non-quantized target family or bad params.
  Status CompactifyInPlace(
      const std::string& target_family,
      const std::map<std::string, std::string>& extra_params = {});

 private:
  struct Shard {
    /// Serializes writers (and listener attach); readers never take it.
    mutable Mutex mu{LockRank::kStoreShard};
    /// Mirror of the store-level listener, guarded by `mu` so mutation
    /// paths need no second lock to find it.
    Listener* listener IPS_GUARDED_BY(mu) = nullptr;
    /// Publication count — the epoch stamped into the next view.
    uint64_t version IPS_GUARDED_BY(mu) = 0;
    /// The published immutable view. Written by mutators under `mu`
    /// (copy-on-write from the previous view), read lock-free by PinShard.
    /// Initialized to the empty epoch-0 view at construction, so readers
    /// never observe null.
    std::atomic<ShardViewPtr> view;
  };

  SketchStore(SketchStoreOptions options,
              std::shared_ptr<const SketchFamily> family);

  /// Publishes the successor view of `shard` with `id` inserted or
  /// replaced: O(shard size) pointer copies from the previous view, one
  /// sorted-position splice, one atomic swap. Returns true iff `id` is new.
  bool PublishInsertLocked(Shard& shard, uint64_t id,
                           const std::shared_ptr<const AnySketch>& sketch)
      IPS_REQUIRES(shard.mu);

  /// Publishes the successor view of `shard` with `id` (which must be
  /// present) removed.
  void PublishEraseLocked(Shard& shard, uint64_t id) IPS_REQUIRES(shard.mu);

  /// Subtracts every shard's current occupancy from the gauges — the
  /// shared cleanup of the destructor and move assignment.
  void RetireOccupancy();

  SketchStoreOptions options_;
  std::shared_ptr<const SketchFamily> family_;
  // unique_ptrs because Shard (mutex) is immovable but the store is not.
  std::vector<std::unique_ptr<Shard>> shards_;
  // Serializes attach/detach (and the compactify guard); unique_ptr because
  // the store is movable (Mutex is not). The per-shard mirrors are what
  // mutations read. kListenerRegistry: AttachListener holds it *across* the
  // per-shard replay, so it must rank below every shard lock.
  std::unique_ptr<Mutex> listener_mu_ =
      std::make_unique<Mutex>(LockRank::kListenerRegistry);
  Listener* listener_ IPS_GUARDED_BY(*listener_mu_) = nullptr;

  // Process-wide store metrics (all SketchStore instances aggregate;
  // gauges track live totals via paired +/- updates). Registry-owned.
  metrics::Counter* inserts_ = nullptr;
  metrics::Counter* erases_ = nullptr;
  metrics::Histogram* ingest_ns_ = nullptr;
  metrics::Gauge* size_gauge_ = nullptr;
  // One gauge per shard index, named ...{shard="i"} — per-shard skew is
  // visible directly in the exposition.
  std::vector<metrics::Gauge*> shard_occupancy_;
};

/// Out-of-place variant of SketchStore::CompactifyInPlace: builds a new
/// compact store holding the quantized form of every sketch in `source`
/// (which must be a full-precision "wmh" store and is left untouched). The
/// result has the same ids, shard layout, seed, L, and engine, so
/// estimates flow through QueryEngine unchanged. Same error contract as
/// CompactifyInPlace.
Result<SketchStore> QuantizeStore(
    const SketchStore& source, const std::string& target_family,
    const std::map<std::string, std::string>& extra_params = {});

}  // namespace ipsketch

#endif  // IPSKETCH_SERVICE_SKETCH_STORE_H_

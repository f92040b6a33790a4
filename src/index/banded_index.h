// MinHash-LSH banded candidate index over a SketchStore — sublinear top-k.
//
// The m positionally-coordinated samples of each stored sketch are split
// into b bands of r rows (b·r ≤ m); each band's r per-sample collision
// codes hash to one 64-bit band key, and every stored sketch is filed into
// one bucket per band. A query collides with a stored sketch in a band iff
// all r samples match, which for (weighted) Jaccard similarity J happens
// with probability J^r per band, so a sketch becomes a candidate with
// probability 1 − (1 − J^r)^b — the classic LSH S-curve: (b, r) is the
// recall/cost knob. Candidates are re-ranked exactly, against the store's
// own pinned shard view through SketchFamily::Estimate — the call the exact
// scan makes — so banding only ever *misses* true hits, never mis-scores
// them. The index holds no sketches: only ids and band keys.
//
// The index is derived from the store's published views, not fed by a
// second write stream: each index shard remembers the ShardView its
// buckets were built from. A probe pins the store's current view of it,
// then locks the index shard; if the pinned view is not the built one, it
// (like size(), always) pins again under that lock and catches up by
// walking the two sorted views together: new ids are filed, erased ids
// unfiled, and a replaced id (same id, different sketch) is unfiled under
// the keys recomputed from the old view's sketch, which the built view
// still holds. A view whose family changed (CompactifyInPlace,
// or a different store move-assigned in) rebuilds the shard. The probe
// then re-ranks against that same pinned view, so every candidate it
// gathers is present in the view it is scored against. Writers never touch
// the index, the index registers nothing with the store, and any number of
// indexes may serve one store. Index shard s follows store shard s; the
// only lock order is index shard → the store's view mutex (kIndexShard →
// kLeaf), taken by a catch-up only: a probe of an unchanged shard holds
// the index shard lock just to gather ids.
//
// Supported families: exactly those with FamilyInfo::supports_banding (the
// minwise samplers wmh, icws, mh, wmh_compact, wmh_bbit). The linear
// sketches (cs, jl) and kmv are rejected at MakeAttached with
// FailedPrecondition — their coordinates are not positionally coordinated
// samples, so banding them would be silently meaningless.

#ifndef IPSKETCH_INDEX_BANDED_INDEX_H_
#define IPSKETCH_INDEX_BANDED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "core/similarity_search.h"
#include "service/metrics.h"
#include "service/sketch_store.h"

namespace ipsketch {

/// The (b, r) banding knob. Recall for similarity J is 1 − (1 − J^r)^b:
/// more bands = more recall and more candidates; more rows = sharper
/// selectivity. bands·rows ≤ m; samples beyond bands·rows are unused by the
/// filter (re-ranking always uses all m).
struct BandedLshParams {
  size_t bands = 16;
  size_t rows = 4;

  /// Ok iff bands, rows ≥ 1 and bands·rows ≤ num_samples.
  Status Validate(size_t num_samples) const;
};

/// Per-query probe counters, aggregated across shards by the caller.
struct IndexProbeStats {
  uint64_t buckets_probed = 0;  ///< non-empty buckets hit
  uint64_t candidates = 0;      ///< deduped candidates re-ranked
};

/// The banded candidate index over one store. Thread-safe; see the file
/// comment for the locking model.
class BandedIndex final {
 public:
  /// Builds an index over `store`, filing every resident sketch now (so
  /// the build cost is paid here, not by the first query).
  /// FailedPrecondition if the store's family does not support banding;
  /// InvalidArgument for out-of-range (b, r). The store must outlive every
  /// call on the returned index and keep its shard count.
  static Result<std::unique_ptr<BandedIndex>> MakeAttached(
      SketchStore* store, const BandedLshParams& params);

  ~BandedIndex();

  BandedIndex(const BandedIndex&) = delete;
  BandedIndex& operator=(const BandedIndex&) = delete;

  /// The store this index is derived from.
  const SketchStore* store() const { return store_; }

  /// The banding knob the index was built with.
  const BandedLshParams& params() const { return params_; }

  /// Total filed sketches after catching every shard up to its current
  /// view (sums shards; not a point-in-time snapshot across them, same
  /// caveat as SketchStore::size).
  size_t size() const;

  /// The query's b band keys, in band order — computed once per query and
  /// shared across shard probes (and the keys a stored sketch is filed
  /// under). InvalidArgument unless `query` passes the family's
  /// CheckCompatible.
  Status QueryBandKeys(const AnySketch& query,
                       std::vector<uint64_t>* keys) const;

  /// Catches `shard` up to the store's current view of it, gathers the
  /// deduped candidates its buckets hold for `keys` (from QueryBandKeys),
  /// re-ranks them against that same view, and offers (id, estimate) pairs
  /// to `heap`. Holds the index shard's lock for the catch-up and gather
  /// only. InvalidArgument unless `query` passes the family's
  /// CheckCompatible.
  Status ProbeShard(const AnySketch& query,
                    const std::vector<uint64_t>& keys, size_t shard,
                    TopKHeap* heap, IndexProbeStats* stats) const;

 private:
  struct Shard {
    /// kIndexShard: held while gathering ids and while catching up (which
    /// pins the store's view, kLeaf); never held by anything that takes a
    /// store shard lock.
    mutable Mutex mu{LockRank::kIndexShard};
    /// The store view `buckets` were built from; null before the first
    /// catch-up.
    ShardViewPtr built IPS_GUARDED_BY(mu);
    /// Band key → ids filed under it (across all bands; keys are salted
    /// per band, so cross-band collisions are as unlikely as any other).
    std::unordered_map<uint64_t, std::vector<uint64_t>> buckets
        IPS_GUARDED_BY(mu);
  };

  BandedIndex(SketchStore* store, const BandedLshParams& params);

  /// The b band keys of `sketch` under `family`'s collision codes.
  Status BandKeys(const SketchFamily& family, const AnySketch& sketch,
                  std::vector<uint64_t>* keys) const;

  /// Pins the store's current view of `shard_index` and brings
  /// `shard.buckets` up to it; returns the view.
  ShardViewPtr CatchUpLocked(Shard& shard, size_t shard_index) const
      IPS_REQUIRES(shard.mu);

  SketchStore* store_;
  BandedLshParams params_;
  std::vector<std::unique_ptr<Shard>> shards_;
  uint64_t key_seed_ = 0;

  // Process-wide index metrics (registry-owned).
  metrics::Counter* inserts_ = nullptr;
  metrics::Counter* erases_ = nullptr;
  metrics::Counter* buckets_probed_ = nullptr;
  metrics::Counter* candidates_ = nullptr;
  metrics::Gauge* size_gauge_ = nullptr;
};

}  // namespace ipsketch

#endif  // IPSKETCH_INDEX_BANDED_INDEX_H_

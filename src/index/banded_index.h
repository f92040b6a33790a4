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
// The index is a SketchStore::Listener: MakeAttached subscribes it to the
// store and replays what is already resident, after which every insert,
// replace, and erase is filed synchronously under the store's shard lock
// for that id. The index's shard partition mirrors the store's
// (SketchStore::ShardOf), and each index shard has its own mutex; the only
// lock order is store-shard → index-shard. A probe holds its index shard
// lock only to gather candidate ids, and pins the store view after
// releasing it, so queries never deadlock against writers. A candidate the
// pinned view does not hold (erased between the two steps) is skipped.
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
  uint64_t candidates = 0;      ///< deduped candidates re-ranked (found
                                ///< in the pinned store view)
};

/// The banded candidate index over one store. Thread-safe; see the file
/// comment for the locking model.
class BandedIndex final : public SketchStore::Listener {
 public:
  /// Builds an index over `store` and attaches it as the store's mutation
  /// listener, replaying everything already resident. FailedPrecondition if
  /// the store's family does not support banding or a listener is already
  /// attached; InvalidArgument for out-of-range (b, r). The store must
  /// outlive the returned index (which detaches itself on destruction).
  static Result<std::unique_ptr<BandedIndex>> MakeAttached(
      SketchStore* store, const BandedLshParams& params);

  /// Detaches from the store.
  ~BandedIndex() override;

  BandedIndex(const BandedIndex&) = delete;
  BandedIndex& operator=(const BandedIndex&) = delete;

  /// The store this index mirrors.
  const SketchStore* store() const { return store_; }

  /// The banding knob the index was built with.
  const BandedLshParams& params() const { return params_; }

  /// Total resident sketches (sums shards; not a point-in-time snapshot
  /// across them, same caveat as SketchStore::size).
  size_t size() const;

  // SketchStore::Listener — called under the store's shard lock.
  void OnInsert(uint64_t id, const AnySketch& sketch) override;
  void OnErase(uint64_t id) override;

  /// The query's b band keys, in band order — computed once per query and
  /// shared across shard probes (and the keys a stored sketch is filed
  /// under). InvalidArgument unless `query` passes the family's
  /// CheckCompatible.
  Status QueryBandKeys(const AnySketch& query,
                       std::vector<uint64_t>* keys) const;

  /// Probes one shard's buckets with `keys` (from QueryBandKeys), re-ranks
  /// the deduped candidates against the store's pinned view of `shard`,
  /// and offers (id, estimate) pairs to `heap`. Holds the index shard's
  /// lock only while gathering candidate ids. InvalidArgument unless
  /// `query` passes the family's CheckCompatible.
  Status ProbeShard(const AnySketch& query,
                    const std::vector<uint64_t>& keys, size_t shard,
                    TopKHeap* heap, IndexProbeStats* stats) const;

 private:
  struct Shard {
    /// kIndexShard: acquired inside listener callbacks while the store's
    /// shard lock (kStoreShard) is held — the mirror protocol's only order.
    mutable Mutex mu{LockRank::kIndexShard};
    /// Each filed id's band keys, in band order — what unfiling it on
    /// erase or replace needs.
    std::unordered_map<uint64_t, std::vector<uint64_t>> keys_of
        IPS_GUARDED_BY(mu);
    /// Band key → ids filed under it (across all bands; keys are salted
    /// per band, so cross-band collisions are as unlikely as any other).
    std::unordered_map<uint64_t, std::vector<uint64_t>> buckets
        IPS_GUARDED_BY(mu);
  };

  BandedIndex(SketchStore* store, const BandedLshParams& params);

  /// Unfiles `id` from `shard`. Returns false if the id was not filed.
  static bool RemoveLocked(Shard& shard, uint64_t id) IPS_REQUIRES(shard.mu);

  SketchStore* store_;
  BandedLshParams params_;
  std::vector<std::unique_ptr<Shard>> shards_;
  uint64_t key_seed_ = 0;
  bool attached_ = false;

  // Process-wide index metrics (registry-owned).
  metrics::Counter* inserts_ = nullptr;
  metrics::Counter* erases_ = nullptr;
  metrics::Counter* buckets_probed_ = nullptr;
  metrics::Counter* candidates_ = nullptr;
  metrics::Gauge* size_gauge_ = nullptr;
};

}  // namespace ipsketch

#endif  // IPSKETCH_INDEX_BANDED_INDEX_H_

// Estimation and retrieval queries over a SketchStore — the read side of
// the service. All estimates go through the store's SketchFamily on stored
// sketches, whatever the family is; the engine never touches raw vectors
// except to sketch an incoming query exactly once.
//
// Parallelism: scans decompose by shard. Each worker thread pins whole
// shard views (SketchStore::PinShard — one atomic load, no shard mutex, no
// copies), feeding a private TopKHeap (core/similarity_search.h), and the
// per-shard heaps are merged at the end; BetterHit's deterministic
// tie-break makes the merged result identical to a serial scan regardless
// of thread count or shard order.
//
// Locking contract (see common/mutex.h): the engine itself is stateless —
// it owns no mutex and never takes a store shard mutex. Banded probes take
// one index shard Mutex (kIndexShard) at a time, plus a short-lived kLeaf
// error-slot Mutex local to each query; that order is strictly
// rank-increasing, so engine queries can never take part in a lock-order
// cycle with ingest or index maintenance — and every exact read may run
// even under a store shard lock (e.g. inside a listener callback).

#ifndef IPSKETCH_SERVICE_QUERY_ENGINE_H_
#define IPSKETCH_SERVICE_QUERY_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "service/metrics.h"
#include "service/sketch_store.h"
#include "service/thread_pool.h"
#include "sketch/family.h"
#include "vector/sparse_vector.h"

namespace ipsketch {

class BandedIndex;  // index/banded_index.h

/// One scored result of a store query.
struct QueryHit {
  uint64_t id = 0;        ///< vector id in the store
  double estimate = 0.0;  ///< estimated ⟨query, stored vector⟩
};

/// Kept only for perfbench/driver.cc; removed with its next change.
enum class ReadMode { kSnapshot };

/// How TopK/TopKSketch traverse the catalog.
enum class IndexPolicy {
  /// Estimate every stored sketch through the pinned shard views — exact,
  /// index-free. A query sees, per shard, the newest epoch published
  /// before its scan reached that shard.
  kExactScan,
  /// LSH-banded candidate generation + slab re-rank — sublinear, recall
  /// governed by the index's (b, r). Requires an index; falls back to
  /// kExactScan without one.
  kBandedRerank,
};

/// Read-side engine over one store. Holds no mutable state of its own, so a
/// single engine may serve concurrent queries from many threads; the store
/// may be ingesting concurrently (each shard scan pins one immutable view,
/// so it sees a consistent per-shard state and never delays writers).
class QueryEngine {
 public:
  /// Queries run against `store`, fanning across `pool` (nullptr = serial).
  /// Both pointers must outlive the engine; the engine owns neither. This
  /// form pins IndexPolicy::kExactScan (no index, no fallback accounting).
  explicit QueryEngine(const SketchStore* store, ThreadPool* pool = nullptr);

  /// Index-aware engine: top-k queries follow `policy` against `index`
  /// (which must be attached to the same `store`; all pointers must outlive
  /// the engine). A null `index` with a non-exact policy is permitted —
  /// every top-k query then falls back to the exact scan and counts on
  /// ipsketch_index_fallback_total.
  QueryEngine(const SketchStore* store, ThreadPool* pool,
              const BandedIndex* index,
              IndexPolicy policy = IndexPolicy::kBandedRerank);

  /// No-op kept only for perfbench/driver.cc; removed with its next change.
  void set_read_mode(ReadMode /*mode*/) {}

  /// Estimates ⟨a, b⟩ between two stored vectors. NotFound if either id is
  /// absent.
  Result<double> EstimateInnerProduct(uint64_t id_a, uint64_t id_b) const;

  /// Sketches `query` once with the store's family, then scans every shard
  /// (in parallel when a pool is present) and returns an estimate for every
  /// stored vector, sorted by id. A non-null `trace` receives stage spans
  /// (sketch-query, shard-scan).
  Result<std::vector<QueryHit>> EstimateAgainstQuery(
      const SparseVector& query, metrics::QueryTrace* trace = nullptr) const;

  /// The `k` stored vectors with the largest estimated inner product
  /// against `query` (sketched once), best first; ties break toward the
  /// smaller id. Returns fewer than `k` hits iff the store is smaller.
  /// A non-null `trace` receives stage spans (sketch-query, shard-scan,
  /// heap-merge) showing where this query's time went.
  Result<std::vector<QueryHit>> TopK(const SparseVector& query, size_t k,
                                     metrics::QueryTrace* trace = nullptr)
      const;

  /// TopK against a pre-built query sketch (must be compatible with the
  /// store's family options) — the path for queries that arrive already
  /// sketched, e.g. from a remote catalog shard.
  Result<std::vector<QueryHit>> TopKSketch(const AnySketch& query, size_t k,
                                           metrics::QueryTrace* trace =
                                               nullptr) const;

  /// Runs `queries.size()` top-k queries in ONE traversal of the catalog —
  /// the batch entry point the FrontDoor's admission queue feeds, and the
  /// body every top-k call runs (the single-query forms are batches of
  /// one). Shards are visited once per *batch* instead of once per query:
  /// the exact path pins each shard view once for all queries, and the
  /// banded path computes each query's band keys once up front. `ks[i]` is
  /// query i's k. Results are per query, in input order; a query whose
  /// sketch is incompatible (or whose estimates fail) gets an error slot
  /// without failing the batch.
  std::vector<Result<std::vector<QueryHit>>> TopKSketchBatch(
      const std::vector<const AnySketch*>& queries,
      const std::vector<size_t>& ks) const;

  /// Measures the banded index's recall on one query: sketches it once,
  /// runs both the exact scan and the banded path, and returns
  /// |banded ∩ exact| / |exact| over the top-k id sets (1.0 when the exact
  /// set is empty). Updates the recall-probe counters, so sampling live
  /// queries through this builds an online recall estimate.
  /// FailedPrecondition without an index.
  Result<double> ProbeRecall(const SparseVector& query, size_t k) const;

 private:
  /// Sketches a raw query vector with the store's family.
  Result<std::unique_ptr<AnySketch>> SketchQuery(
      const SparseVector& query) const;

  /// Runs fn(shard_index) over all shards, on the pool when available.
  void ForEachShard(const std::function<void(size_t)>& fn) const;

  /// TopKSketchBatch under an explicit policy, recording stage spans into
  /// `trace` (may be null) — the one top-k body.
  std::vector<Result<std::vector<QueryHit>>> RunTopK(
      const std::vector<const AnySketch*>& queries,
      const std::vector<size_t>& ks, IndexPolicy policy,
      metrics::QueryTrace* trace) const;

  const SketchStore* store_;
  ThreadPool* pool_;
  const BandedIndex* index_ = nullptr;
  IndexPolicy policy_ = IndexPolicy::kExactScan;

  // Process-wide query metrics (all QueryEngine instances aggregate).
  // Registry-owned; valid forever.
  metrics::Histogram* estimate_pair_ns_ = nullptr;
  metrics::Histogram* scan_ns_ = nullptr;
  metrics::Histogram* topk_ns_ = nullptr;
  metrics::Histogram* candidates_per_query_ = nullptr;
  metrics::Counter* sketches_scanned_ = nullptr;
  metrics::Counter* queries_ = nullptr;
  metrics::Histogram* rerank_ns_ = nullptr;
  metrics::Counter* fallbacks_ = nullptr;
  metrics::Counter* recall_probe_expected_ = nullptr;
  metrics::Counter* recall_probe_hits_ = nullptr;
};

}  // namespace ipsketch

#endif  // IPSKETCH_SERVICE_QUERY_ENGINE_H_

// The service's asynchronous front door: a future/callback query API
// backed by a bounded admission queue that batches concurrent callers onto
// the ThreadPool.
//
// Why a queue instead of a thread per caller: under overload a synchronous
// API makes every caller's latency grow without bound (the open-loop
// saturation sweep in bench_saturation shows TopK p50 collapsing from µs to
// hundreds of ms). The front door instead
//
//   1. admits requests into a bounded queue and *sheds* the excess with an
//      immediate Unavailable (counted on ipsketch_frontdoor_shed_total), so
//      accepted work has bounded queueing delay;
//   2. expires requests whose deadline passed while queued
//      (DeadlineExceeded) instead of wasting a scan on an answer nobody is
//      waiting for;
//   3. drains the queue in batches and runs each batch through
//      QueryEngine::TopKSketchBatch, which traverses the catalog once per
//      *batch* — shard views are pinned once for all queries, raw query
//      vectors are sketched with one shared Sketcher, and with a banded
//      index attached the SlabCatalog re-rank kernel (EstimateMany) runs
//      over contiguous lanes;
//   4. reads the store only through pinned epoch views, like every store
//      read: zero shard-mutex acquisitions, so query traffic never
//      contends with ingest.
//
// Locking (common/mutex.h): the admission queue is guarded by a
// kFrontDoorQueue Mutex held only for push/pop and dispatch bookkeeping.
// Batch execution, completion callbacks, and future notification all run
// with the queue lock released; future states use a kLeaf Mutex. User
// callbacks run on a pool worker (or, for shed requests, the submitting
// thread) — they must be fast and must not block.

#ifndef IPSKETCH_SERVICE_FRONT_DOOR_H_
#define IPSKETCH_SERVICE_FRONT_DOOR_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "service/metrics.h"
#include "service/query_engine.h"
#include "service/sketch_store.h"
#include "service/thread_pool.h"
#include "sketch/family.h"
#include "vector/sparse_vector.h"

namespace ipsketch {

/// Tuning knobs for FrontDoor.
struct FrontDoorOptions {
  /// Admission-queue capacity. A submit that finds the queue full is shed
  /// immediately with Unavailable; together with the batch service time
  /// this bounds the queueing delay of every accepted request.
  size_t max_queue_depth = 256;
  /// Most requests coalesced into one batch execution.
  size_t max_batch = 32;
  /// Batches allowed in flight at once (0 = the pool's thread count).
  /// More concurrent batches = more parallelism across shards; 1 gives
  /// strict FIFO completion order.
  size_t max_concurrent_batches = 0;
  /// Deadline budget applied to requests submitted without one
  /// (0 = no deadline). Measured from submit time.
  uint64_t default_deadline_ns = 0;
};

namespace front_door_internal {

/// Shared completion slot of one request: result + wakeup for the future
/// side, set exactly once by the front door.
template <typename T>
struct FutureState {
  /// kLeaf: completion and Take both hold it briefly; nothing is acquired
  /// under it.
  Mutex mu{LockRank::kLeaf};
  CondVar cv;
  std::optional<Result<T>> result IPS_GUARDED_BY(mu);
};

template <typename T>
void Complete(const std::shared_ptr<FutureState<T>>& state, Result<T> r) {
  MutexLock lock(&state->mu);
  state->result.emplace(std::move(r));
  state->cv.NotifyAll();
}

}  // namespace front_door_internal

/// Handle to one submitted request's eventual result. Every submitted
/// request is completed exactly once — with its answer, an error from the
/// engine, Unavailable (shed or shutdown), or DeadlineExceeded — so Take()
/// always returns. Copyable (all copies share the result); Take moves the
/// result out, so call it from one place.
template <typename T>
class FrontDoorFuture {
 public:
  FrontDoorFuture() = default;

  /// False only for a default-constructed handle.
  bool valid() const { return state_ != nullptr; }

  /// True once the result is set (non-blocking).
  bool Ready() const {
    MutexLock lock(&state_->mu);
    return state_->result.has_value();
  }

  /// Blocks until the result is set and moves it out.
  Result<T> Take() {
    MutexLock lock(&state_->mu);
    while (!state_->result.has_value()) state_->cv.Wait(state_->mu);
    return std::move(*state_->result);
  }

 private:
  friend class FrontDoor;
  explicit FrontDoorFuture(
      std::shared_ptr<front_door_internal::FutureState<T>> state)
      : state_(std::move(state)) {}

  std::shared_ptr<front_door_internal::FutureState<T>> state_;
};

/// The admission-queued async query API over one store. Thread-safe; see
/// the file comment for the model. The store, pool, and index must outlive
/// the front door.
class FrontDoor {
 public:
  using EstimateResult = Result<double>;
  using TopKResult = Result<std::vector<QueryHit>>;
  using EstimateCallback = std::function<void(EstimateResult)>;
  using TopKCallback = std::function<void(TopKResult)>;

  /// Serves `store` through `pool`. With a non-null `index` (attached to
  /// the same store), top-k batches follow `policy`; without one they run
  /// the exact snapshot scan. `pool` may be null — dispatch then runs
  /// inline on the submitting thread (degenerate but correct; useful in
  /// tests).
  FrontDoor(const SketchStore* store, ThreadPool* pool,
            const FrontDoorOptions& options = {},
            const BandedIndex* index = nullptr,
            IndexPolicy policy = IndexPolicy::kExactScan);

  /// Sheds everything still queued (each completes with Unavailable) and
  /// waits for batches already executing to finish, so no request is ever
  /// left incomplete and no callback outlives the front door.
  ~FrontDoor();

  FrontDoor(const FrontDoor&) = delete;
  FrontDoor& operator=(const FrontDoor&) = delete;

  const FrontDoorOptions& options() const { return options_; }

  /// Estimates ⟨a, b⟩ between two stored vectors. `deadline_ns` is a
  /// relative budget from now (0 = options().default_deadline_ns).
  FrontDoorFuture<double> SubmitEstimate(uint64_t id_a, uint64_t id_b,
                                         uint64_t deadline_ns = 0);
  void SubmitEstimate(uint64_t id_a, uint64_t id_b, EstimateCallback done,
                      uint64_t deadline_ns = 0);

  /// Top-k against a raw query vector. The vector is copied at submit and
  /// sketched inside the batch (one Sketcher per batch), keeping the
  /// expensive sketching off the submitting thread.
  FrontDoorFuture<std::vector<QueryHit>> SubmitTopK(const SparseVector& query,
                                                    size_t k,
                                                    uint64_t deadline_ns = 0);
  void SubmitTopK(SparseVector query, size_t k, TopKCallback done,
                  uint64_t deadline_ns = 0);

  /// Top-k against a pre-built query sketch (must match the store family).
  FrontDoorFuture<std::vector<QueryHit>> SubmitTopKSketch(
      std::unique_ptr<AnySketch> query, size_t k, uint64_t deadline_ns = 0);
  void SubmitTopKSketch(std::unique_ptr<AnySketch> query, size_t k,
                        TopKCallback done, uint64_t deadline_ns = 0);

 private:
  struct Request;  // front_door.cc — queue entries never escape

  /// Admits `req` (or sheds it) and makes sure a dispatcher is running.
  void Enqueue(std::unique_ptr<Request> req);

  /// Pops and executes batches until the queue is empty or shutdown.
  void DispatchLoop();

  /// Expires, sketches, and runs one popped batch, completing every
  /// request. Runs with no front-door lock held.
  void ExecuteBatch(std::vector<std::unique_ptr<Request>> batch);

  const SketchStore* store_;
  ThreadPool* pool_;
  FrontDoorOptions options_;
  /// Engine over pinned views; serial inside a batch (parallelism comes from
  /// concurrent batches, each on its own pool worker).
  QueryEngine engine_;

  mutable Mutex mu_{LockRank::kFrontDoorQueue};
  std::deque<std::unique_ptr<Request>> queue_ IPS_GUARDED_BY(mu_);
  size_t active_batches_ IPS_GUARDED_BY(mu_) = 0;
  bool shutting_down_ IPS_GUARDED_BY(mu_) = false;
  /// Signaled when the last in-flight batch retires (destructor wait).
  CondVar drained_cv_;

  // Process-wide front-door metrics (registry-owned).
  metrics::Counter* submitted_ = nullptr;
  metrics::Counter* completed_ = nullptr;
  metrics::Counter* shed_ = nullptr;
  metrics::Counter* expired_ = nullptr;
  metrics::Gauge* queue_depth_ = nullptr;
  metrics::Histogram* queue_wait_ns_ = nullptr;
  metrics::Histogram* batch_size_ = nullptr;
  metrics::Histogram* latency_ns_ = nullptr;
};

}  // namespace ipsketch

#endif  // IPSKETCH_SERVICE_FRONT_DOOR_H_

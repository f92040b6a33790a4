#include "service/front_door.h"

#include <algorithm>
#include <string>

#include "index/banded_index.h"

namespace ipsketch {

struct FrontDoor::Request {
  enum class Kind { kEstimate, kTopK };

  Kind kind = Kind::kEstimate;
  // kEstimate
  uint64_t id_a = 0;
  uint64_t id_b = 0;
  EstimateCallback est_done;
  // kTopK: exactly one of query_vec (sketched inside the batch) or
  // query_sketch is set.
  std::optional<SparseVector> query_vec;
  std::unique_ptr<AnySketch> query_sketch;
  size_t k = 0;
  TopKCallback topk_done;

  /// Absolute steady-clock expiry (metrics::NowNs base); 0 = none.
  uint64_t deadline_ns = 0;
  uint64_t enqueue_ns = 0;

  void CompleteError(Status st) {
    if (kind == Kind::kEstimate) {
      est_done(EstimateResult(std::move(st)));
    } else {
      topk_done(TopKResult(std::move(st)));
    }
  }
};

FrontDoor::FrontDoor(const SketchStore* store, ThreadPool* pool,
                     const FrontDoorOptions& options, const BandedIndex* index,
                     IndexPolicy policy)
    : store_(store),
      pool_(pool),
      options_(options),
      engine_(store, /*pool=*/nullptr, index, policy) {
  IPS_CHECK(store_ != nullptr);
  IPS_CHECK(options_.max_queue_depth > 0);
  IPS_CHECK(options_.max_batch > 0);
  if (options_.max_concurrent_batches == 0) {
    options_.max_concurrent_batches =
        pool_ != nullptr ? pool_->num_threads() : 1;
  }
  auto& registry = metrics::MetricsRegistry::Global();
  submitted_ = &registry.GetCounter("ipsketch_frontdoor_submitted_total",
                                    "Requests submitted to the front door");
  completed_ = &registry.GetCounter(
      "ipsketch_frontdoor_completed_total",
      "Requests that executed to completion (answer or engine error)");
  shed_ = &registry.GetCounter(
      "ipsketch_frontdoor_shed_total",
      "Requests rejected with Unavailable (queue full or shutdown)");
  expired_ = &registry.GetCounter(
      "ipsketch_frontdoor_deadline_expired_total",
      "Requests whose deadline passed while queued (DeadlineExceeded)");
  queue_depth_ = &registry.GetGauge("ipsketch_frontdoor_queue_depth",
                                    "Requests waiting in the admission queue");
  queue_wait_ns_ = &registry.GetHistogram(
      "ipsketch_frontdoor_queue_wait_ns",
      "Time from submit to batch pickup (admission-queue delay)");
  batch_size_ = &registry.GetHistogram(
      "ipsketch_frontdoor_batch_size",
      "Requests coalesced per dispatched batch");
  latency_ns_ = &registry.GetHistogram(
      "ipsketch_frontdoor_latency_ns",
      "Submit-to-completion latency of executed requests");
}

FrontDoor::~FrontDoor() {
  std::deque<std::unique_ptr<Request>> orphaned;
  {
    MutexLock lock(&mu_);
    shutting_down_ = true;
    orphaned.swap(queue_);
    queue_depth_->Set(0);
  }
  // Completion runs outside the queue lock so user callbacks may not
  // re-enter the (same-ranked) front door.
  for (auto& req : orphaned) {
    shed_->Add(1);
    req->CompleteError(
        Status::Unavailable("front door shutting down; request not served"));
  }
  MutexLock lock(&mu_);
  while (active_batches_ > 0) drained_cv_.Wait(mu_);
}

void FrontDoor::Enqueue(std::unique_ptr<Request> req) {
  submitted_->Add(1);
  req->enqueue_ns = metrics::NowNs();
  const uint64_t budget =
      req->deadline_ns != 0 ? req->deadline_ns : options_.default_deadline_ns;
  req->deadline_ns = budget != 0 ? req->enqueue_ns + budget : 0;

  std::unique_ptr<Request> shed;
  const char* shed_reason = nullptr;
  bool spawn = false;
  {
    MutexLock lock(&mu_);
    if (shutting_down_) {
      shed = std::move(req);
      shed_reason = "front door shutting down";
    } else if (queue_.size() >= options_.max_queue_depth) {
      shed = std::move(req);
      shed_reason = "admission queue full";
    } else {
      queue_.push_back(std::move(req));
      queue_depth_->Set(static_cast<int64_t>(queue_.size()));
      if (active_batches_ < options_.max_concurrent_batches) {
        ++active_batches_;
        spawn = true;
      }
    }
  }
  if (shed != nullptr) {
    shed_->Add(1);
    shed->CompleteError(Status::Unavailable(
        std::string(shed_reason) + "; retry later or raise max_queue_depth"));
    return;
  }
  if (spawn) {
    // Pool gone or stopping: dispatch inline on the submitter — degenerate
    // but every request still completes.
    if (pool_ == nullptr || !pool_->Submit([this] { DispatchLoop(); })) {
      DispatchLoop();
    }
  }
}

void FrontDoor::DispatchLoop() {
  for (;;) {
    std::vector<std::unique_ptr<Request>> batch;
    {
      MutexLock lock(&mu_);
      if (shutting_down_ || queue_.empty()) {
        --active_batches_;
        if (active_batches_ == 0) drained_cv_.NotifyAll();
        return;
      }
      const size_t n = std::min(options_.max_batch, queue_.size());
      batch.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      queue_depth_->Set(static_cast<int64_t>(queue_.size()));
    }
    batch_size_->Record(batch.size());
    ExecuteBatch(std::move(batch));
  }
}

void FrontDoor::ExecuteBatch(std::vector<std::unique_ptr<Request>> batch) {
  const uint64_t picked_up_ns = metrics::NowNs();
  std::vector<Request*> live;
  live.reserve(batch.size());
  for (auto& req : batch) {
    queue_wait_ns_->Record(picked_up_ns - req->enqueue_ns);
    if (req->deadline_ns != 0 && picked_up_ns > req->deadline_ns) {
      expired_->Add(1);
      req->CompleteError(Status::DeadlineExceeded(
          "deadline passed while queued at the front door"));
      continue;
    }
    live.push_back(req.get());
  }

  // Sketch raw top-k query vectors with ONE Sketcher for the whole batch —
  // the scratch-reuse coalescing the per-caller synchronous path never
  // gets.
  std::unique_ptr<Sketcher> sketcher;
  for (Request* req : live) {
    if (req->kind != Request::Kind::kTopK || !req->query_vec.has_value()) {
      continue;
    }
    if (sketcher == nullptr) {
      auto made = store_->family().MakeSketcher();
      if (!made.ok()) {
        // Family cannot sketch: fail every raw-vector request up front.
        for (Request* r : live) {
          if (r->kind == Request::Kind::kTopK && r->query_vec.has_value() &&
              r->query_sketch == nullptr) {
            r->CompleteError(made.status());
          }
        }
        break;
      }
      sketcher = std::move(made).value();
    }
    std::unique_ptr<AnySketch> sketch = store_->family().NewSketch();
    Status st = sketcher->Sketch(*req->query_vec, sketch.get());
    if (st.ok()) req->query_sketch = std::move(sketch);
    // A failed sketch leaves query_sketch null; completed below.
  }

  // Partition: estimates run directly (snapshot lookups), top-ks go
  // through the engine's one-traversal batch API.
  std::vector<Request*> topks;
  std::vector<const AnySketch*> topk_queries;
  std::vector<size_t> topk_ks;
  for (Request* req : live) {
    if (req->kind == Request::Kind::kEstimate) {
      EstimateResult result = engine_.EstimateInnerProduct(req->id_a,
                                                           req->id_b);
      completed_->Add(1);
      latency_ns_->Record(metrics::NowNs() - req->enqueue_ns);
      req->est_done(std::move(result));
      continue;
    }
    if (req->query_sketch == nullptr) {
      req->CompleteError(Status::InvalidArgument(
          "query vector could not be sketched with the store's family"));
      continue;
    }
    topks.push_back(req);
    topk_queries.push_back(req->query_sketch.get());
    topk_ks.push_back(req->k);
  }
  if (topks.empty()) return;

  std::vector<TopKResult> results =
      engine_.TopKSketchBatch(topk_queries, topk_ks);
  IPS_CHECK(results.size() == topks.size());
  for (size_t i = 0; i < topks.size(); ++i) {
    completed_->Add(1);
    latency_ns_->Record(metrics::NowNs() - topks[i]->enqueue_ns);
    topks[i]->topk_done(std::move(results[i]));
  }
}

FrontDoorFuture<double> FrontDoor::SubmitEstimate(uint64_t id_a, uint64_t id_b,
                                                  uint64_t deadline_ns) {
  auto state =
      std::make_shared<front_door_internal::FutureState<double>>();
  SubmitEstimate(
      id_a, id_b,
      [state](EstimateResult r) {
        front_door_internal::Complete(state, std::move(r));
      },
      deadline_ns);
  return FrontDoorFuture<double>(std::move(state));
}

void FrontDoor::SubmitEstimate(uint64_t id_a, uint64_t id_b,
                               EstimateCallback done, uint64_t deadline_ns) {
  IPS_CHECK(done != nullptr);
  auto req = std::make_unique<Request>();
  req->kind = Request::Kind::kEstimate;
  req->id_a = id_a;
  req->id_b = id_b;
  req->est_done = std::move(done);
  req->deadline_ns = deadline_ns;
  Enqueue(std::move(req));
}

FrontDoorFuture<std::vector<QueryHit>> FrontDoor::SubmitTopK(
    const SparseVector& query, size_t k, uint64_t deadline_ns) {
  auto state = std::make_shared<
      front_door_internal::FutureState<std::vector<QueryHit>>>();
  SubmitTopK(
      query, k,
      [state](TopKResult r) {
        front_door_internal::Complete(state, std::move(r));
      },
      deadline_ns);
  return FrontDoorFuture<std::vector<QueryHit>>(std::move(state));
}

void FrontDoor::SubmitTopK(SparseVector query, size_t k, TopKCallback done,
                           uint64_t deadline_ns) {
  IPS_CHECK(done != nullptr);
  auto req = std::make_unique<Request>();
  req->kind = Request::Kind::kTopK;
  req->query_vec.emplace(std::move(query));
  req->k = k;
  req->topk_done = std::move(done);
  req->deadline_ns = deadline_ns;
  Enqueue(std::move(req));
}

FrontDoorFuture<std::vector<QueryHit>> FrontDoor::SubmitTopKSketch(
    std::unique_ptr<AnySketch> query, size_t k, uint64_t deadline_ns) {
  auto state = std::make_shared<
      front_door_internal::FutureState<std::vector<QueryHit>>>();
  SubmitTopKSketch(
      std::move(query), k,
      [state](TopKResult r) {
        front_door_internal::Complete(state, std::move(r));
      },
      deadline_ns);
  return FrontDoorFuture<std::vector<QueryHit>>(std::move(state));
}

void FrontDoor::SubmitTopKSketch(std::unique_ptr<AnySketch> query, size_t k,
                                 TopKCallback done, uint64_t deadline_ns) {
  IPS_CHECK(done != nullptr);
  IPS_CHECK(query != nullptr);
  auto req = std::make_unique<Request>();
  req->kind = Request::Kind::kTopK;
  req->query_sketch = std::move(query);
  req->k = k;
  req->topk_done = std::move(done);
  req->deadline_ns = deadline_ns;
  Enqueue(std::move(req));
}

}  // namespace ipsketch

#include "service/query_engine.h"

#include <algorithm>
#include <unordered_set>

#include "common/mutex.h"

#include "core/similarity_search.h"
#include "index/banded_index.h"

namespace ipsketch {

// Heap entries carry store ids in SimilarityHit::index.
static_assert(sizeof(size_t) >= sizeof(uint64_t),
              "service ids require a 64-bit size_t");

QueryEngine::QueryEngine(const SketchStore* store, ThreadPool* pool)
    : QueryEngine(store, pool, nullptr, IndexPolicy::kExactScan) {}

QueryEngine::QueryEngine(const SketchStore* store, ThreadPool* pool,
                         const BandedIndex* index, IndexPolicy policy)
    : store_(store), pool_(pool), index_(index), policy_(policy) {
  IPS_CHECK(store_ != nullptr);
  IPS_CHECK(index_ == nullptr || index_->store() == store_);
  auto& registry = metrics::MetricsRegistry::Global();
  estimate_pair_ns_ = &registry.GetHistogram(
      "ipsketch_query_estimate_pair_ns",
      "EstimateInnerProduct latency: two lookups plus one estimate");
  scan_ns_ = &registry.GetHistogram(
      "ipsketch_query_scan_ns", "EstimateAgainstQuery end-to-end latency");
  topk_ns_ = &registry.GetHistogram("ipsketch_query_topk_ns",
                                    "TopK/TopKSketch end-to-end latency");
  candidates_per_query_ = &registry.GetHistogram(
      "ipsketch_query_candidates",
      "Sketches scanned (= candidates estimated) per top-k query");
  sketches_scanned_ = &registry.GetCounter(
      "ipsketch_query_sketches_scanned_total",
      "Stored sketches estimated against a query across all scans");
  queries_ = &registry.GetCounter("ipsketch_query_total",
                                  "Queries served (all query APIs)");
  rerank_ns_ = &registry.GetHistogram(
      "ipsketch_index_rerank_ns",
      "Banded path latency: bucket probes plus candidate re-rank");
  fallbacks_ = &registry.GetCounter(
      "ipsketch_index_fallback_total",
      "Top-k queries that wanted an index path but fell back to the exact "
      "scan (no index attached)");
  recall_probe_expected_ = &registry.GetCounter(
      "ipsketch_index_recall_probe_expected_total",
      "Exact-scan top-k hits across ProbeRecall calls (denominator)");
  recall_probe_hits_ = &registry.GetCounter(
      "ipsketch_index_recall_probe_hits_total",
      "Banded top-k hits matching the exact scan across ProbeRecall calls "
      "(numerator)");
}

Result<double> QueryEngine::EstimateInnerProduct(uint64_t id_a,
                                                 uint64_t id_b) const {
  metrics::ScopedLatency latency(estimate_pair_ns_);
  queries_->Add(1);
  // Pinned views instead of Lookup: no shard mutex, no sketch clones.
  const ShardViewPtr va = store_->PinShard(store_->ShardOf(id_a));
  const AnySketch* a = va->Find(id_a);
  if (a == nullptr) {
    return Status::NotFound("no sketch stored under id " +
                            std::to_string(id_a));
  }
  const ShardViewPtr vb = store_->PinShard(store_->ShardOf(id_b));
  const AnySketch* b = vb->Find(id_b);
  if (b == nullptr) {
    return Status::NotFound("no sketch stored under id " +
                            std::to_string(id_b));
  }
  return va->family->Estimate(*a, *b);
}

Result<std::unique_ptr<AnySketch>> QueryEngine::SketchQuery(
    const SparseVector& query) const {
  auto sketcher = store_->family().MakeSketcher();
  IPS_RETURN_IF_ERROR(sketcher.status());
  std::unique_ptr<AnySketch> sketch = store_->family().NewSketch();
  IPS_RETURN_IF_ERROR(sketcher.value()->Sketch(query, sketch.get()));
  return sketch;
}

void QueryEngine::ForEachShard(const std::function<void(size_t)>& fn) const {
  const size_t n = store_->num_shards();
  if (pool_ != nullptr) {
    pool_->ParallelFor(n, fn);
  } else {
    for (size_t s = 0; s < n; ++s) fn(s);
  }
}

Result<std::vector<QueryHit>> QueryEngine::EstimateAgainstQuery(
    const SparseVector& query, metrics::QueryTrace* trace) const {
  metrics::ScopedLatency latency(scan_ns_);
  queries_->Add(1);
  Result<std::unique_ptr<AnySketch>> sketched = [&] {
    metrics::ScopedSpan span(trace, "sketch-query");
    return SketchQuery(query);
  }();
  IPS_RETURN_IF_ERROR(sketched.status());
  const AnySketch& qs = *sketched.value();
  const SketchFamily& family = store_->family();

  std::vector<std::vector<QueryHit>> per_shard(store_->num_shards());
  // kLeaf: taken by scan workers, which hold no other lock.
  Mutex error_mu;
  Status first_error;
  {
    metrics::ScopedSpan span(trace, "shard-scan");
    ForEachShard([&](size_t s) {
      const ShardViewPtr view = store_->PinShard(s);
      per_shard[s].reserve(view->ids.size());
      for (size_t i = 0; i < view->ids.size(); ++i) {
        auto est = family.Estimate(qs, *view->sketches[i]);
        if (!est.ok()) {
          MutexLock lock(&error_mu);
          if (first_error.ok()) first_error = est.status();
          return;
        }
        per_shard[s].push_back({view->ids[i], est.value()});
      }
    });
  }
  IPS_RETURN_IF_ERROR(first_error);

  std::vector<QueryHit> all;
  for (auto& shard_hits : per_shard) {
    all.insert(all.end(), shard_hits.begin(), shard_hits.end());
  }
  std::sort(all.begin(), all.end(),
            [](const QueryHit& a, const QueryHit& b) { return a.id < b.id; });
  sketches_scanned_->Add(all.size());
  return all;
}

Result<std::vector<QueryHit>> QueryEngine::TopK(
    const SparseVector& query, size_t k, metrics::QueryTrace* trace) const {
  Result<std::unique_ptr<AnySketch>> sketched = [&] {
    metrics::ScopedSpan span(trace, "sketch-query");
    return SketchQuery(query);
  }();
  IPS_RETURN_IF_ERROR(sketched.status());
  return TopKSketch(*sketched.value(), k, trace);
}

Result<std::vector<QueryHit>> QueryEngine::TopKSketch(
    const AnySketch& query, size_t k, metrics::QueryTrace* trace) const {
  return std::move(RunTopK({&query}, {k}, policy_, trace).front());
}

std::vector<Result<std::vector<QueryHit>>> QueryEngine::TopKSketchBatch(
    const std::vector<const AnySketch*>& queries,
    const std::vector<size_t>& ks) const {
  return RunTopK(queries, ks, policy_, nullptr);
}

std::vector<Result<std::vector<QueryHit>>> QueryEngine::RunTopK(
    const std::vector<const AnySketch*>& queries,
    const std::vector<size_t>& ks, IndexPolicy policy,
    metrics::QueryTrace* trace) const {
  IPS_CHECK(queries.size() == ks.size());
  metrics::ScopedLatency latency(topk_ns_);
  const size_t q_count = queries.size();
  queries_->Add(q_count);
  const SketchFamily& family = store_->family();
  std::vector<Result<std::vector<QueryHit>>> results(
      q_count, Result<std::vector<QueryHit>>(
                   Status::Internal("batch slot not filled")));
  // live[q] marks queries still participating in the traversal; a query
  // leaves the batch at validation (here) or band-key time, never
  // mid-scan — scan workers only *record* errors, resolved at the merge.
  std::vector<bool> live(q_count, false);
  size_t live_count = 0;
  for (size_t q = 0; q < q_count; ++q) {
    IPS_CHECK(queries[q] != nullptr);
    Status compatible = family.CheckCompatible(*queries[q]);
    if (!compatible.ok()) {
      results[q] = Status::InvalidArgument(
          "query sketch does not match the store's family: " +
          compatible.message());
      continue;
    }
    live[q] = true;
    ++live_count;
  }

  if (policy != IndexPolicy::kExactScan && index_ == nullptr) {
    fallbacks_->Add(live_count);
    policy = IndexPolicy::kExactScan;
  }

  // One private heap per (query, shard); each shard is visited by exactly
  // one worker, so the heaps (and per-shard tallies) are written lock-free
  // and merged once all shards finish. BetterHit's deterministic tie-break
  // makes the merged result independent of thread count and shard order.
  const size_t n = store_->num_shards();
  std::vector<std::vector<TopKHeap>> heaps(q_count);
  for (size_t q = 0; q < q_count; ++q) {
    if (!live[q]) continue;
    heaps[q].reserve(n);
    for (size_t s = 0; s < n; ++s) heaps[q].emplace_back(ks[q]);
  }
  // Shared by the exact scan (every live query scans the same entries);
  // per-query candidate counts for the banded path come from probe stats.
  std::vector<size_t> entries_per_shard(n, 0);
  std::vector<std::vector<IndexProbeStats>> probe_stats;
  // kLeaf: record_error runs in scan workers after any index shard lock is
  // released; nothing nests under it.
  Mutex error_mu;
  std::vector<Status> errors(q_count);
  auto record_error = [&](size_t q, const Status& st) {
    MutexLock lock(&error_mu);
    if (errors[q].ok()) errors[q] = st;
  };

  if (policy == IndexPolicy::kExactScan) {
    metrics::ScopedSpan span(trace, "shard-scan");
    ForEachShard([&](size_t s) {
      const ShardViewPtr view = store_->PinShard(s);
      entries_per_shard[s] = view->ids.size();
      for (size_t i = 0; i < view->ids.size(); ++i) {
        for (size_t q = 0; q < q_count; ++q) {
          if (!live[q]) continue;
          auto est = family.Estimate(*queries[q], *view->sketches[i]);
          if (!est.ok()) {
            record_error(q, est.status());
            continue;
          }
          heaps[q][s].Offer(static_cast<size_t>(view->ids[i]), est.value());
        }
      }
    });
  } else {
    // Band keys once per query, shared across every shard probe.
    std::vector<std::vector<uint64_t>> keys(q_count);
    {
      metrics::ScopedSpan span(trace, "band-query");
      for (size_t q = 0; q < q_count; ++q) {
        if (!live[q]) continue;
        Status st = index_->QueryBandKeys(*queries[q], &keys[q]);
        if (!st.ok()) {
          results[q] = st;
          live[q] = false;
          --live_count;
        }
      }
    }
    metrics::ScopedSpan span(trace, "index-probe");
    probe_stats.assign(q_count, std::vector<IndexProbeStats>(n));
    metrics::ScopedLatency rerank_latency(rerank_ns_);
    ForEachShard([&](size_t s) {
      for (size_t q = 0; q < q_count; ++q) {
        if (!live[q]) continue;
        Status st = index_->ProbeShard(*queries[q], keys[q], s,
                                       &heaps[q][s], &probe_stats[q][s]);
        if (!st.ok()) record_error(q, st);
      }
    });
  }

  metrics::ScopedSpan merge_span(trace, "heap-merge");
  size_t total_entries = 0;
  for (size_t c : entries_per_shard) total_entries += c;
  size_t total_estimated = 0;
  for (size_t q = 0; q < q_count; ++q) {
    if (!live[q]) continue;
    {
      MutexLock lock(&error_mu);
      if (!errors[q].ok()) {
        results[q] = errors[q];
        continue;
      }
    }
    TopKHeap merged(ks[q]);
    for (const TopKHeap& heap : heaps[q]) merged.Merge(heap);
    std::vector<QueryHit> hits;
    for (const SimilarityHit& hit : merged.TakeSorted()) {
      hits.push_back({static_cast<uint64_t>(hit.index), hit.estimate});
    }
    // For the banded path "candidates" counts re-ranked candidates — the
    // work actually done — so candidates_per_query_ exposes the banding
    // win directly against the exact scan's corpus-sized numbers.
    size_t candidates = total_entries;
    if (policy == IndexPolicy::kBandedRerank) {
      candidates = 0;
      for (const IndexProbeStats& st : probe_stats[q]) {
        candidates += static_cast<size_t>(st.candidates);
      }
    }
    candidates_per_query_->Record(candidates);
    total_estimated += candidates;
    results[q] = std::move(hits);
  }
  sketches_scanned_->Add(total_estimated);
  return results;
}

Result<double> QueryEngine::ProbeRecall(const SparseVector& query,
                                        size_t k) const {
  if (index_ == nullptr) {
    return Status::FailedPrecondition(
        "recall probes require a banded index");
  }
  auto sketched = SketchQuery(query);
  IPS_RETURN_IF_ERROR(sketched.status());
  const AnySketch* q = sketched.value().get();
  auto exact = RunTopK({q}, {k}, IndexPolicy::kExactScan, nullptr);
  IPS_RETURN_IF_ERROR(exact[0].status());
  auto banded = RunTopK({q}, {k}, IndexPolicy::kBandedRerank, nullptr);
  IPS_RETURN_IF_ERROR(banded[0].status());
  const std::vector<QueryHit>& exact_hits = exact[0].value();
  if (exact_hits.empty()) return 1.0;
  std::unordered_set<uint64_t> exact_ids;
  exact_ids.reserve(exact_hits.size());
  for (const QueryHit& hit : exact_hits) exact_ids.insert(hit.id);
  size_t overlap = 0;
  for (const QueryHit& hit : banded[0].value()) {
    overlap += exact_ids.count(hit.id);
  }
  recall_probe_expected_->Add(exact_hits.size());
  recall_probe_hits_->Add(overlap);
  return static_cast<double>(overlap) /
         static_cast<double>(exact_hits.size());
}

}  // namespace ipsketch

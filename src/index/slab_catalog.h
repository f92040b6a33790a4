// The slot-addressed side of the banded index: per shard, one
// structure-of-arrays SketchSlab (sketch/family.h) plus the slot ↔ id
// bookkeeping a swap-remove arena needs. Candidate re-ranking estimates
// 1-query-vs-many-slots straight through the slab's contiguous lanes (and
// so through the dispatched SIMD kernels), with estimates bit-identical to
// SketchFamily::Estimate.
//
// NOT thread-safe: every method takes a shard index and must run under the
// owner's lock for that shard (index/banded_index.h holds one
// ipsketch::Mutex at LockRank::kIndexShard per shard; the shard partition
// mirrors SketchStore::ShardOf). Clang's thread-safety analysis cannot
// express "guarded by the owner's same-indexed mutex", so the contract is
// carried by the owner's IPS_REQUIRES(shard.mu) helpers rather than
// IPS_GUARDED_BY annotations here.

#ifndef IPSKETCH_INDEX_SLAB_CATALOG_H_
#define IPSKETCH_INDEX_SLAB_CATALOG_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "sketch/family.h"

namespace ipsketch {

/// Per-shard slabs + slot bookkeeping. Slots are dense [0, size(shard)) and
/// renumber on Remove (swap-remove: the last slot moves into the hole).
class SlabCatalog {
 public:
  /// What `Remove` did: `slot` is now free of the removed id; if `moved`,
  /// the entry formerly at the last slot (`moved_id`) now lives at `slot`
  /// (the caller rewires any slot-keyed references it holds).
  struct RemoveResult {
    uint32_t slot = 0;
    bool moved = false;
    uint64_t moved_id = 0;
  };

  /// An empty catalog with `num_shards` slabs of `family`'s lanes.
  /// FailedPrecondition unless the family supports banding.
  static Result<SlabCatalog> Make(const SketchFamily* family,
                                  size_t num_shards);

  /// Number of shards (fixed at Make).
  size_t num_shards() const { return shards_.size(); }

  /// Number of resident sketches in `shard`.
  size_t size(size_t shard) const { return shards_[shard].ids.size(); }

  /// Appends `sketch` under `id`, returning its slot. InvalidArgument if the
  /// sketch fails the family's CheckCompatible or `id` is already resident
  /// in the shard (callers remove first on replace).
  Result<uint32_t> Append(size_t shard, uint64_t id, const AnySketch& sketch);

  /// Swap-removes `id` from `shard`. NotFound if absent.
  Result<RemoveResult> Remove(size_t shard, uint64_t id);

  /// The slot `id` occupies in `shard`; NotFound if absent.
  Result<uint32_t> SlotOf(size_t shard, uint64_t id) const;

  /// The id resident at `slot` of `shard`. Dies if out of range.
  uint64_t IdAt(size_t shard, size_t slot) const {
    IPS_CHECK(slot < shards_[shard].ids.size());
    return shards_[shard].ids[slot];
  }

  /// Estimates `query` against `slots[0..count)` of `shard` into
  /// `out[0..count)` — the candidate re-rank path.
  Status EstimateMany(size_t shard, const AnySketch& query,
                      const uint32_t* slots, size_t count, double* out) const {
    return shards_[shard].slab->EstimateMany(query, slots, count, out);
  }

 private:
  struct ShardState {
    std::unique_ptr<SketchSlab> slab;
    std::vector<uint64_t> ids;                     // slot → id
    std::unordered_map<uint64_t, uint32_t> slot_of;  // id → slot
  };

  explicit SlabCatalog(std::vector<ShardState> shards)
      : shards_(std::move(shards)) {}

  std::vector<ShardState> shards_;
};

}  // namespace ipsketch

#endif  // IPSKETCH_INDEX_SLAB_CATALOG_H_

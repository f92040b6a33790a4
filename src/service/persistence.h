// Whole-store save/load — the catalog survives process restarts.
//
// File format v2 (little-endian, doubles as IEEE-754 bit patterns; built
// from the same wire primitives as sketch/serialize.h):
//
//   [magic u32 "IPST"][version u8 = 2]
//   [family name, u64-length-prefixed bytes][num_shards u64]
//   [resolved FamilyOptions: dimension u64, num_samples u64, seed u64,
//    param count u64, then (key bytes, value bytes) per param]
//   [count u64] then per entry: [id u64][len u64][family Serialize bytes]
//   [fnv1a-64 checksum of all preceding bytes, u64]
//
// The header carries the *family tag* and the family's fully resolved
// options, so a file is self-describing for any registered family and a
// reopening process can verify it got the catalog it expected
// (LoadSketchStoreAs). Version-1 files — the WMH-only format that predates
// the SketchFamily interface — are still readable: their fixed header maps
// onto family "wmh" with params {L, engine}.
//
// Each entry's payload is exactly the per-sketch wire format, so a store
// file is also a valid container of individually-parseable sketches. Load
// verifies the checksum and then every frame, so neither structural damage
// nor a flipped payload byte ever yields a silently wrong store.
//
// Locking contract (see common/mutex.h): persistence holds no locks of its
// own. Save serializes straight from pinned shard views (no shard Mutex,
// no sketch copies) and Load builds a private store no other thread can
// see yet, so these functions never appear in any lock-order chain.

#ifndef IPSKETCH_SERVICE_PERSISTENCE_H_
#define IPSKETCH_SERVICE_PERSISTENCE_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "service/sketch_store.h"

namespace ipsketch {

/// Encodes the whole store (family + options + every sketch) to bytes. The
/// encoding of a given store state is deterministic: entries are written in
/// (shard, id) order from pinned shard views.
std::string EncodeSketchStore(const SketchStore& store);

/// Decodes a store previously produced by EncodeSketchStore (version 2) or
/// by the pre-SketchFamily WMH-only format (version 1), reproducing family,
/// options, shard layout, and every sketch. InvalidArgument on malformed
/// bytes.
Result<SketchStore> DecodeSketchStore(std::string_view bytes);

/// Ok iff the store's family tag and resolved options match `expected`
/// (family name, dimension, num_samples, seed, and every family param;
/// `expected` is resolved through the registry first, so defaults like
/// WMH's L = 0 compare correctly). The failure Status names the first
/// mismatching field — the guard that keeps a process from serving
/// estimates out of a catalog built with different parameters.
Status CheckStoreMatches(const SketchStore& store,
                         const SketchStoreOptions& expected);

/// Writes EncodeSketchStore(store) to `path` atomically enough for a single
/// writer (write to a temp file in place is NOT attempted — this is a plain
/// truncate-and-write). Internal error statuses on I/O failure.
Status SaveSketchStore(const SketchStore& store, const std::string& path);

/// Reads `path` and decodes it. NotFound if the file cannot be opened.
Result<SketchStore> LoadSketchStore(const std::string& path);

/// LoadSketchStore + CheckStoreMatches against `expected`: the open path
/// for a service that already knows which catalog it is supposed to serve.
/// FailedPrecondition (with the mismatching field named) if the file holds
/// a different family or different options.
Result<SketchStore> LoadSketchStoreAs(const std::string& path,
                                      const SketchStoreOptions& expected);

}  // namespace ipsketch

#endif  // IPSKETCH_SERVICE_PERSISTENCE_H_

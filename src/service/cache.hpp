#pragma once
// Synthesis result cache: a thread-safe bounded LRU keyed by a stable
// canonical rendering of the synthesis request (DFG + schedule + module
// spec + options).  Batch manifests over the design space repeat points —
// the same benchmark under the same spec and binder — and related datapath
// work (graph-isomorphism synthesis reuse) shows recognizing repeated
// structure pays; the cache turns those repeats into O(1) lookups.
//
// Keys are the exact canonical strings (no collision risk); fnv1a64() gives
// a short stable fingerprint of a key for logs and reports.

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/hash.hpp"
#include "support/json.hpp"

namespace lbist {

class Dfg;
class DiskCache;  // service/diskcache/diskcache.hpp
class Schedule;
struct ModuleProto;
struct SynthesisOptions;

/// Canonical cache key of one synthesis request: the printed scheduled DFG,
/// the module labels, options_to_json(opts) (the IR snapshot's "options"
/// member: every option that affects synthesis) and the BIST pattern
/// budget.  Two requests get equal keys iff the pipeline would produce
/// identical results for them.
[[nodiscard]] std::string synthesis_cache_key(
    const Dfg& dfg, const Schedule& sched,
    const std::vector<ModuleProto>& protos, const SynthesisOptions& opts,
    int patterns);

/// Canonical cache key of one remote pass execution (the server's
/// {"type":"pass"} request): the pass name plus the posted IR snapshot
/// re-rendered compactly with the informational "writer" record dropped —
/// clients on different builds posting the same IR must share an entry.
[[nodiscard]] std::string pass_cache_key(const std::string& pass_name,
                                         const Json& snapshot);

/// Thread-safe bounded LRU map with hit/miss/eviction accounting.
template <class Value>
class LruCache {
 public:
  /// `capacity` = max retained entries (0 is clamped to 1).
  explicit LruCache(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Returns the cached value and marks it most-recently-used.
  [[nodiscard]] std::optional<Value> get(const std::string& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
  }

  /// Inserts or refreshes; evicts the least-recently-used entry when full.
  void put(const std::string& key, Value v) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(v);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.emplace_front(key, std::move(v));
    index_[key] = order_.begin();
    if (order_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      ++evictions_;
    }
  }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;
  };
  [[nodiscard]] Stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return Stats{hits_, misses_, evictions_, order_.size(), capacity_};
  }

 private:
  mutable std::mutex mutex_;
  std::list<std::pair<std::string, Value>> order_;  // front = most recent
  std::unordered_map<std::string,
                     typename std::list<std::pair<std::string, Value>>::iterator>
      index_;
  std::size_t capacity_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

/// The batch service and server cache the deterministic per-job result
/// object in a bounded in-memory LRU (L1).  Optionally a persistent
/// content-addressed DiskCache (L2, shared across server shards and
/// surviving restarts — see docs/diskcache.md) sits behind it: an L1 miss
/// falls through to disk, and the recovered value is promoted back into
/// L1.  Values cross the L2 boundary as compact JSON text, so entries are
/// writer-independent and replayable across builds.
class SynthesisCache : public LruCache<Json> {
 public:
  explicit SynthesisCache(std::size_t capacity, DiskCache* disk = nullptr)
      : LruCache<Json>(capacity), disk_(disk) {}

  /// Attaches (or detaches, with nullptr) the persistent L2.  Borrowed;
  /// must outlive the cache's last get/put.
  void attach_disk(DiskCache* disk) { disk_ = disk; }
  [[nodiscard]] DiskCache* disk() const { return disk_; }

  /// L1 lookup, falling through to the persistent L2 on miss.
  [[nodiscard]] std::optional<Json> get(const std::string& key);

  /// Inserts into L1 and appends to the persistent L2 (when attached).
  void put(const std::string& key, Json v);

  /// Lookups answered by the persistent layer (subset of L1 misses).
  [[nodiscard]] std::uint64_t persistent_hits() const {
    return persistent_hits_.load(std::memory_order_relaxed);
  }

 private:
  DiskCache* disk_ = nullptr;
  std::atomic<std::uint64_t> persistent_hits_{0};
};

}  // namespace lbist

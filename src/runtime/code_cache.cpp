#include "runtime/code_cache.h"

#include <cassert>

#include "bytecode/module.h"

namespace svc {

CodeCache::Artifact CodeCache::get_or_compile(const CodeCacheKey& key,
                                              CompileFn compile) {
  // Id 0 means a moved-from Module husk (or an unregistered module):
  // caching under it would alias unrelated modules' artifacts.
  assert(key.module_id != 0 && "CodeCacheKey with dead module id");
  std::promise<Artifact> promise;
  std::optional<PersistentCacheKey> disk_key;
  // The in-flight node this call fills. Nodes of an unordered_map keep
  // their address across rehashing, and nothing else erases an in-flight
  // node, so the pointer outlives the unlocked compile below.
  Node* node = nullptr;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    auto [it, inserted] = entries_.try_emplace(key);
    if (!inserted) {
      Entry& entry = it->second;
      count_locked(Hits);
      if (entry.artifact) {
        lru_.splice(lru_.begin(), lru_, entry.lru_it);
        return entry.artifact;
      }
      // Another thread is compiling this key right now: count it as a hit
      // (no compile happens on our behalf) and join its result.
      count_locked(Coalesced);
      std::shared_future<Artifact> future = entry.pending;
      lock.unlock();
      return future.get();
    }
    count_locked(Misses);
    disk_key = disk_key_locked(key);
    it->second.pending = promise.get_future().share();
    node = &*it;
  }

  // Second level: consult the on-disk store before compiling. The probe
  // (file I/O + decode) runs outside the lock like the compile itself;
  // coalescing above guarantees one prober per key. Any invalid entry
  // degrades to a miss and is overwritten by this compile's write-back.
  if (disk_key) {
    const PersistentCache::LoadResult loaded = persistent_->load(*disk_key);
    switch (loaded.status) {
      case PersistentCache::LoadStatus::Hit: {
        Artifact artifact = loaded.artifact;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          count_locked(DiskHits);
          publish_locked(*node, artifact);
        }
        promise.set_value(artifact);
        return artifact;
      }
      case PersistentCache::LoadStatus::Reject:
        // Corrupt, truncated, or stale entry: a clean miss by contract
        // (never a crash); counted, then recompiled and overwritten.
        {
          std::lock_guard<std::mutex> lock(mutex_);
          count_locked(DiskRejects);
          count_locked(DiskMisses);
        }
        break;
      case PersistentCache::LoadStatus::Miss: {
        std::lock_guard<std::mutex> lock(mutex_);
        count_locked(DiskMisses);
        break;
      }
    }
  }

  // Compile outside the lock so independent keys compile in parallel.
  Artifact artifact;
  try {
    artifact = std::make_shared<const JitArtifact>(compile());
  } catch (...) {
    // Compile errors are fatal() today, but a throwing compile (bad_alloc)
    // must not leave a poisoned in-flight slot: clear it, fail the
    // coalesced waiters, and let a later request try again.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      entries_.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }

  // Write-back before publishing in memory: the waiters' wall time is
  // dominated by the compile anyway, and a crash after publish would
  // otherwise lose the artifact for every future process.
  bool wrote = false;
  if (disk_key) wrote = persistent_->store(*disk_key, *artifact);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    count_locked(Compiles);
    if (wrote) count_locked(DiskWrites);
    publish_locked(*node, artifact);
  }
  // Fulfilled after the entry is resident; waiters got their future copy
  // under the lock, so dropping the node's copy first is safe.
  promise.set_value(artifact);
  return artifact;
}

void CodeCache::attach_persistent(const PersistentCache* store) {
  std::lock_guard<std::mutex> lock(mutex_);
  persistent_ = store;
}

bool CodeCache::has_persistent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return persistent_ != nullptr;
}

void CodeCache::register_module(const Module& module) {
  assert(module.id() != 0 && "registering a moved-from module");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!persistent_ || content_hashes_.count(module.id())) return;
  }
  // Hashing serializes every function; keep it off the lock and tolerate
  // the benign race of two loaders hashing the same (immutable) module.
  std::vector<uint64_t> hashes = PersistentCache::content_hashes(module);
  std::lock_guard<std::mutex> lock(mutex_);
  content_hashes_.emplace(module.id(), std::move(hashes));
}

std::optional<PersistentCacheKey> CodeCache::disk_key_locked(
    const CodeCacheKey& key) const {
  if (!persistent_) return std::nullopt;
  const auto it = content_hashes_.find(key.module_id);
  if (it == content_hashes_.end() || key.func_idx >= it->second.size()) {
    return std::nullopt;
  }
  return PersistentCacheKey{it->second[key.func_idx], key.func_idx, key.kind,
                            key.options_key,          key.tier,
                            key.profile_hash};
}

CodeCache::Artifact CodeCache::peek(const CodeCacheKey& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : it->second.artifact;
}

void CodeCache::set_code_budget(size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  budget_ = bytes;
  evict_to_budget_locked();
}

size_t CodeCache::code_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

size_t CodeCache::num_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resident_;
}

Statistics CodeCache::stats() const {
  static constexpr const char* kKeys[kNumCounters] = {
      "cache.hits",        "cache.misses",      "cache.compiles",
      "cache.coalesced",   "cache.evictions",   "cache.disk_hits",
      "cache.disk_misses", "cache.disk_writes", "cache.disk_rejects",
      "cache.bytes",
  };
  std::lock_guard<std::mutex> lock(mutex_);
  Statistics out;
  for (size_t c = 0; c < kNumCounters; ++c) {
    if (present_ & (uint32_t{1} << c)) {
      out.set(kKeys[c], c == Bytes ? static_cast<int64_t>(bytes_) : counts_[c]);
    }
  }
  return out;
}

void CodeCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  // In-flight nodes stay: their compiles publish into them.
  std::erase_if(entries_, [](const Node& node) {
    return node.second.artifact != nullptr;
  });
  lru_.clear();
  resident_ = 0;
  bytes_ = 0;
  count_locked(Bytes, 0);
}

void CodeCache::publish_locked(Node& node, Artifact artifact) {
  Entry& entry = node.second;
  entry.bytes = artifact->code.code_bytes();
  entry.artifact = std::move(artifact);
  entry.pending = {};
  lru_.push_front(&node.first);
  entry.lru_it = lru_.begin();
  ++resident_;
  bytes_ += entry.bytes;
  evict_to_budget_locked();
}

void CodeCache::evict_to_budget_locked() {
  // The budget is soft for a single artifact: the most recent entry stays
  // resident even when it alone exceeds the budget (there is nothing
  // cheaper to run instead).
  while (bytes_ > budget_ && resident_ > 1) {
    const auto it = entries_.find(*lru_.back());
    lru_.pop_back();
    bytes_ -= it->second.bytes;
    --resident_;
    entries_.erase(it);
    count_locked(Evictions);
  }
  count_locked(Bytes, 0);
}

}  // namespace svc

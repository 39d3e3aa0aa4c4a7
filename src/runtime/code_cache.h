// Shared, thread-safe cache of JIT artifacts: the code-management
// subsystem under the tiered deployment runtime. Cores (OnlineTarget) and
// background compile jobs key artifacts by (module identity, function
// index, target kind, JitOptions cache key), so cores of the same kind on
// one SoC reuse code instead of recompiling -- the O(cores x functions) ->
// O(kinds x functions) reduction measured by tests/code_cache_test.cpp.
//
// Concurrency contract: every public method is safe from any thread.
// Concurrent get_or_compile calls for the same key coalesce onto a single
// in-flight compile (the losers wait on a shared_future), so a key is
// compiled exactly once no matter how many cores race for it.
//
// Capacity: a configurable code-bytes budget with LRU eviction. Artifacts
// are handed out as shared_ptr, so eviction never invalidates code a core
// already holds; an evicted-then-requested key simply recompiles.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "jit/jit_compiler.h"
#include "runtime/persistent_cache.h"

namespace svc {

/// Identity of one compiled artifact. `module_id` is the deployed
/// module's stable identity (Module::id()): a process-monotonic id
/// assigned at construction and never reused, so -- unlike the address
/// keying this replaced -- a module freed and another allocated at the
/// same address can never alias a stale artifact. get_or_compile asserts
/// in debug builds that the id is live (non-zero, i.e. not a moved-from
/// husk).
///
/// `tier` and `profile_hash` separate the fast first JIT (tier 1) from
/// profile-guided re-specializations (tier 2): artifacts of different
/// tiers -- or of the same tier shaped by different observed profiles --
/// coexist as independent entries and evict independently.
///
/// The mixed hash is precomputed at construction (the dominant cost is
/// hashing options_key, a string that never changes after construction),
/// so every probe on the hot request path is a field read instead of a
/// re-hash. Keys are immutable: mutate-by-rebuild if you need a variant.
class CodeCacheKey {
 public:
  CodeCacheKey() { rehash(); }
  CodeCacheKey(uint64_t module_id, uint32_t func_idx, TargetKind kind,
               std::string options_key, uint32_t tier = 1,
               uint64_t profile_hash = 0)
      : module_id(module_id),
        func_idx(func_idx),
        kind(kind),
        options_key(std::move(options_key)),
        tier(tier),
        profile_hash(profile_hash) {
    rehash();
  }

  const uint64_t module_id = 0;  // Module::id() of the deployed module
  const uint32_t func_idx = 0;
  const TargetKind kind = TargetKind::X86Sim;
  const std::string options_key;  // JitOptions::cache_key()
  const uint32_t tier = 1;        // 1 = first JIT, 2 = optimizing recompile
  const uint64_t profile_hash = 0;  // ProfileInfo::hash() of a tier-2 compile

  /// The precomputed mixed hash; equal keys always carry equal hashes
  /// (asserted by tests/persistent_cache_test.cpp).
  [[nodiscard]] size_t hash() const { return hash_; }

  friend bool operator==(const CodeCacheKey& a, const CodeCacheKey& b) {
    return a.hash_ == b.hash_ && a.module_id == b.module_id &&
           a.func_idx == b.func_idx && a.kind == b.kind && a.tier == b.tier &&
           a.profile_hash == b.profile_hash && a.options_key == b.options_key;
  }

 private:
  void rehash() {
    size_t h = std::hash<uint64_t>{}(module_id);
    const auto mix = [&h](size_t v) {
      h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    mix(func_idx);
    mix(static_cast<size_t>(kind));
    mix(std::hash<std::string>{}(options_key));
    mix(tier);
    mix(static_cast<size_t>(profile_hash));
    hash_ = h;
  }

  size_t hash_ = 0;
};

struct CodeCacheKeyHash {
  size_t operator()(const CodeCacheKey& key) const { return key.hash(); }
};

class CodeCache {
 public:
  using Artifact = std::shared_ptr<const JitArtifact>;

  /// A non-owning reference to the compile callable: two pointers, so
  /// passing one allocates nothing (a std::function would, for a lambda
  /// capturing more than two pointers). get_or_compile calls it before it
  /// returns, while the caller's callable is alive.
  class CompileFn {
   public:
    template <typename F>
      requires(!std::is_same_v<std::remove_cvref_t<F>, CompileFn> &&
               std::is_invocable_r_v<JitArtifact, F&>)
    CompileFn(F&& compile)
        : callable_(const_cast<void*>(
              static_cast<const void*>(std::addressof(compile)))),
          call_([](void* callable) -> JitArtifact {
            return (*static_cast<std::remove_reference_t<F>*>(callable))();
          }) {}

    JitArtifact operator()() const { return call_(callable_); }

   private:
    void* callable_;
    JitArtifact (*call_)(void*);
  };

  explicit CodeCache(size_t code_budget_bytes = SIZE_MAX)
      : budget_(code_budget_bytes) {}

  /// Returns the artifact for `key`, running `compile` on a miss. Counts
  /// "cache.hits" / "cache.misses"; concurrent same-key callers coalesce
  /// ("cache.coalesced") and only one runs `compile` ("cache.compiles").
  ///
  /// With an attached persistent store (and the key's module registered),
  /// a memory miss consults disk before compiling: a valid entry installs
  /// without invoking `compile` ("cache.disk_hits"), an absent one counts
  /// "cache.disk_misses", a corrupt/stale one additionally
  /// "cache.disk_rejects", and a fresh compile writes back atomically
  /// ("cache.disk_writes") so concurrent processes sharing the store
  /// directory reuse each other's work.
  Artifact get_or_compile(const CodeCacheKey& key, CompileFn compile);

  /// Attaches (or detaches, with nullptr) the on-disk second-level store.
  /// The store is borrowed: it must outlive the cache (a Soc holds a
  /// share of its store for as long as its cache lives). Attach before
  /// the first get_or_compile; modules already registered keep their
  /// content hashes.
  void attach_persistent(const PersistentCache* store);

  /// True when an on-disk store is attached.
  [[nodiscard]] bool has_persistent() const;

  /// Computes and records the restart-stable per-function content hashes
  /// of `module` (PersistentCache::content_hashes), enabling disk
  /// consultation for keys carrying this module's id. Idempotent; cheap
  /// no-op without an attached store. Loaders call this once per module.
  void register_module(const Module& module);

  /// Non-compiling, non-counting probe; does not touch LRU order.
  [[nodiscard]] Artifact peek(const CodeCacheKey& key) const;

  /// Shrinks (or grows) the resident-code budget; evicts immediately when
  /// the new budget is already exceeded.
  void set_code_budget(size_t bytes);

  /// Resident emitted-code bytes across all cached artifacts.
  [[nodiscard]] size_t code_bytes() const;

  [[nodiscard]] size_t num_entries() const;

  /// Snapshot of the cache counters: cache.hits, cache.misses,
  /// cache.compiles, cache.coalesced, cache.evictions, cache.bytes, and
  /// -- with a persistent store attached -- cache.disk_hits,
  /// cache.disk_misses, cache.disk_writes, cache.disk_rejects.
  [[nodiscard]] Statistics stats() const;

  /// Drops every cached artifact (in-flight compiles finish normally).
  void clear();

 private:
  // One node per key, resident or in flight, so a miss copies its key
  // (and the options_key string in it) once. The LRU list points at the
  // keys in the nodes, which stay put until the node is erased.
  struct Entry {
    Artifact artifact;  // null while the first compile is in flight
    std::shared_future<Artifact> pending;  // valid while in flight
    size_t bytes = 0;
    std::list<const CodeCacheKey*>::iterator lru_it;
  };
  using Node = std::pair<const CodeCacheKey, Entry>;

  // The stats() counters as fixed fields. A counter nothing touched is
  // absent from stats(), as a key never added to a Statistics is.
  enum Counter : uint8_t {
    Hits,
    Misses,
    Compiles,
    Coalesced,
    Evictions,
    DiskHits,
    DiskMisses,
    DiskWrites,
    DiskRejects,
    Bytes,  // a gauge: bytes_, reported once the first insert set it
    kNumCounters,
  };
  void count_locked(Counter c, int64_t delta = 1) {
    counts_[c] += delta;
    present_ |= uint32_t{1} << c;
  }

  /// Makes the in-flight `node` resident with `artifact`.
  void publish_locked(Node& node, Artifact artifact);
  void evict_to_budget_locked();
  /// The disk spelling of `key` when an on-disk probe is possible (store
  /// attached, module registered, function index in range).
  [[nodiscard]] std::optional<PersistentCacheKey> disk_key_locked(
      const CodeCacheKey& key) const;

  mutable std::mutex mutex_;
  size_t budget_;
  size_t bytes_ = 0;
  const PersistentCache* persistent_ = nullptr;
  // Module id -> restart-stable per-function content hashes, registered
  // by loaders; consulted to translate in-memory keys to disk keys.
  std::unordered_map<uint64_t, std::vector<uint64_t>> content_hashes_;
  std::unordered_map<CodeCacheKey, Entry, CodeCacheKeyHash> entries_;
  size_t resident_ = 0;  // entries_ with an artifact
  std::list<const CodeCacheKey*> lru_;  // front = most recently used
  std::array<int64_t, kNumCounters> counts_{};
  uint32_t present_ = 0;
};

}  // namespace svc

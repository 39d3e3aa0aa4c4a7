// Persistent on-disk artifact store: the second-level (disk) tier under
// the in-memory CodeCache. The paper's split-compilation premise is that
// expensive work is done once and reused; this store extends that to the
// runtime half -- JIT artifacts survive process restarts, so a second
// boot of a deployment warms up from disk instead of re-paying the
// tier-1/tier-2 compile bill (bench/warm_start.cpp measures the win).
//
// Keying: a module's process-monotonic id() is meaningless across
// restarts, so on disk it is replaced by a *content hash* of the
// function -- the serialized per-function record (serialize_function)
// mixed with a digest of every function signature in the module (calls
// lower against callee signatures, so a function's code depends on the
// module's interface, not just its own body). The rest of the in-memory
// CodeCacheKey (function index, target kind, JitOptions::cache_key(),
// tier, profile hash) carries over verbatim. Every entry additionally
// embeds a build fingerprint (schema version, MachineDesc identity,
// compiler stamp): any mismatch -- like any CRC failure, truncation, or
// key collision -- loads as a clean miss, never a crash.
//
// Multi-process sharing: one store directory may be shared by any number
// of concurrent processes on a host. Writers are atomic (temp file +
// rename into place), so readers only ever observe absent or complete
// entries; racing writers of the same key settle on one winner with the
// same code and counters (only the recorded compile times differ, as
// they do between any two compiles). There is no in-store eviction -- entries are small
// and immutable; prune the directory externally (docs/PERSISTENCE.md).
//
// Thread-safety: the store is stateless apart from its directory path;
// load/store/entry_path are safe from any thread and any process, so one
// store serves every Soc an Engine deploys (SocOptions::persistent_cache).
//
// Cost: open() creates and checks the directory and makes a write probe,
// several file-system calls, so it runs once per store
// (Engine::Builder::build), not per deploy. A load() is one open, fstat
// and read of the entry, a CRC, and a decode that checks the fingerprint
// and key in place and fills the artifact directly (docs/PERSISTENCE.md
// has a cost table).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "jit/jit_compiler.h"
#include "support/result.h"

namespace svc {

class Module;

/// Restart-stable identity of one persisted artifact: the in-memory
/// CodeCacheKey with the process-local module id replaced by the
/// function's content hash.
struct PersistentCacheKey {
  uint64_t content_hash = 0;
  uint32_t func_idx = 0;
  TargetKind kind = TargetKind::X86Sim;
  std::string options_key;  // JitOptions::cache_key()
  uint32_t tier = 1;
  uint64_t profile_hash = 0;
};

class PersistentCache {
 public:
  /// Outcome of a disk probe. Reject = an entry file existed but failed
  /// validation (CRC, truncation, fingerprint skew, key collision): the
  /// caller treats it exactly like a miss and its write-back overwrites
  /// the bad entry.
  enum class LoadStatus : uint8_t { Hit, Miss, Reject };

  struct LoadResult {
    LoadStatus status = LoadStatus::Miss;
    std::shared_ptr<const JitArtifact> artifact;  // set only on Hit
  };

  /// Opens (creating if needed) a store rooted at `dir`. Fails -- with a
  /// diagnostic, not a crash -- when the path exists but is not a
  /// directory or when a write probe shows the directory is not
  /// writable. Engine::Builder::build() opens its engine's store with
  /// this; a raw Soc user opens one and hands it to SocOptions.
  [[nodiscard]] static Result<PersistentCache> open(const std::string& dir);

  /// Probes the store for `key`. Never throws and never crashes on a
  /// corrupt, truncated, stale, or colliding entry: every failure mode
  /// degrades to Miss/Reject and the caller recompiles. Creates no file.
  [[nodiscard]] LoadResult load(const PersistentCacheKey& key) const;

  /// Persists `artifact` under `key` atomically (temp file + rename), so
  /// concurrent readers and same-key writers in other processes are
  /// safe. Returns false (and leaves no partial file) on I/O failure.
  /// `fingerprint_override` is a testing hook: it stamps the entry with
  /// a different build fingerprint so staleness handling can be
  /// exercised without forging whole files.
  [[nodiscard]] bool store(const PersistentCacheKey& key,
                           const JitArtifact& artifact,
                           const std::string* fingerprint_override =
                               nullptr) const;

  /// The file a given key maps to (exists only once stored). Exposed for
  /// tests and external pruning tools.
  [[nodiscard]] std::string entry_path(const PersistentCacheKey& key) const;

  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// The build fingerprint stamped into (and demanded of) every entry
  /// for this (target, options) pair: persistence schema version, the
  /// target's MachineDesc identity digest, JitOptions::cache_key(), and
  /// the compiler version stamp. Any component changing invalidates the
  /// store's entries wholesale -- by rejection at load, not by deletion.
  [[nodiscard]] static std::string build_fingerprint(
      TargetKind kind, const std::string& options_key);

  /// Restart-stable per-function content hashes for `module`: hash of
  /// serialize_function(fn) mixed with the module-wide interface digest
  /// (every function's name and signature). Computed once per loaded
  /// module by CodeCache::register_module.
  [[nodiscard]] static std::vector<uint64_t> content_hashes(
      const Module& module);

 private:
  explicit PersistentCache(std::string dir) : dir_(std::move(dir)) {}

  std::string dir_;
};

}  // namespace svc

#include "runtime/persistent_cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <system_error>

#include "bytecode/serializer.h"
#include "support/crc32.h"
#include "support/varint.h"
#include "targets/target_registry.h"

namespace svc {
namespace {

// Bumped whenever the entry layout below changes shape; old entries then
// reject cleanly instead of mis-decoding.
constexpr uint32_t kPersistSchemaVersion = 1;

// Identity of the code generator itself. Any change to JIT codegen that
// can alter emitted MInst streams must bump this, or stale artifacts
// would load as if freshly compiled. Kept here (not in a header) so the
// bump is a one-line diff next to the format it guards.
constexpr const char* kCompilerStamp = "svc-jit-7";

constexpr char kEntryMagic[4] = {'S', 'V', 'C', 'A'};

// --- hashing ---------------------------------------------------------------

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t fnv1a(std::span<const uint8_t> bytes, uint64_t h = kFnvOffset) {
  for (const uint8_t b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

uint64_t fnv1a_str(const std::string& s, uint64_t h = kFnvOffset) {
  return fnv1a({reinterpret_cast<const uint8_t*>(s.data()), s.size()}, h);
}

/// FNV-1a as a byte sink: hashes what a writer appends without keeping it.
struct Fnv1aSink {
  uint64_t h = kFnvOffset;
  void push_back(uint8_t b) {
    h ^= b;
    h *= kFnvPrime;
  }
};

// --- low-level entry encoding ----------------------------------------------

template <typename Out>
void write_string(Out& out, std::string_view s) {
  write_uleb(out, s.size());
  for (const char c : s) out.push_back(static_cast<uint8_t>(c));
}

/// A length-prefixed string, as a view into the reader's buffer.
std::optional<std::string_view> read_string(ByteReader& r) {
  const auto n = r.read_uleb();
  if (!n || *n > r.remaining()) return std::nullopt;
  const auto bytes = r.read_bytes(static_cast<size_t>(*n));
  if (!bytes) return std::nullopt;
  return std::string_view(reinterpret_cast<const char*>(bytes->data()),
                          bytes->size());
}

void write_reg(std::vector<uint8_t>& out, const Reg& reg) {
  out.push_back(static_cast<uint8_t>(reg.cls) |
                (reg.valid ? uint8_t{0x80} : uint8_t{0}));
  write_uleb(out, reg.idx);
}

std::optional<Reg> read_reg(ByteReader& r) {
  const auto flags = r.read_byte();
  const auto idx = r.read_uleb();
  if (!flags || !idx || *idx > UINT32_MAX) return std::nullopt;
  const uint8_t cls = *flags & 0x7f;
  if (cls >= kNumRegClasses) return std::nullopt;
  Reg reg;
  reg.cls = static_cast<RegClass>(cls);
  reg.idx = static_cast<uint32_t>(*idx);
  reg.valid = (*flags & 0x80) != 0;
  return reg;
}

void write_minst(std::vector<uint8_t>& out, const MInst& inst) {
  write_uleb(out, static_cast<uint16_t>(inst.op));
  write_reg(out, inst.dst);
  write_reg(out, inst.s0);
  write_reg(out, inst.s1);
  write_reg(out, inst.s2);
  write_sleb(out, inst.imm);
  write_uleb(out, inst.a);
  write_uleb(out, inst.b);
}

std::optional<MInst> read_minst(ByteReader& r) {
  const auto op = r.read_uleb();
  if (!op) return std::nullopt;
  // Valid machine ops are either wrapped bytecode opcodes or the
  // machine-only range [kMachineOnlyBase, MNop]; anything else is rot.
  if (*op >= kNumOpcodes &&
      (*op < kMachineOnlyBase ||
       *op > static_cast<uint16_t>(MOp::MNop))) {
    return std::nullopt;
  }
  MInst inst;
  inst.op = static_cast<MOp>(*op);
  const auto dst = read_reg(r);
  const auto s0 = read_reg(r);
  const auto s1 = read_reg(r);
  const auto s2 = read_reg(r);
  const auto imm = r.read_sleb();
  const auto a = r.read_uleb();
  const auto b = r.read_uleb();
  if (!dst || !s0 || !s1 || !s2 || !imm || !a || a > UINT32_MAX || !b ||
      *b > UINT32_MAX) {
    return std::nullopt;
  }
  inst.dst = *dst;
  inst.s0 = *s0;
  inst.s1 = *s1;
  inst.s2 = *s2;
  inst.imm = *imm;
  inst.a = static_cast<uint32_t>(*a);
  inst.b = static_cast<uint32_t>(*b);
  return inst;
}

void write_regs(std::vector<uint8_t>& out, std::span<const Reg> regs) {
  write_uleb(out, regs.size());
  for (const Reg& reg : regs) write_reg(out, reg);
}

/// Reads `out.size()` registers into `out`; the caller sized it from the
/// list's length prefix (read_count).
bool read_regs(ByteReader& r, std::span<Reg> out) {
  for (Reg& reg : out) {
    const auto read = read_reg(r);
    if (!read) return false;
    reg = *read;
  }
  return true;
}

/// A length prefix of a register list or of a list of them.
std::optional<size_t> read_count(ByteReader& r) {
  const auto n = r.read_uleb();
  if (!n || *n > (1u << 20)) return std::nullopt;
  return static_cast<size_t>(*n);
}

/// Writes a RegLists as the list count then each list, length-prefixed:
/// the bytes a vector of register vectors was written as.
void write_reg_lists(std::vector<uint8_t>& out, const RegLists& lists) {
  write_uleb(out, lists.size());
  for (size_t i = 0; i < lists.size(); ++i) write_regs(out, lists[i]);
}

std::optional<RegLists> read_reg_lists(ByteReader& r) {
  const auto n = read_count(r);
  if (!n) return std::nullopt;
  RegLists lists;
  for (size_t i = 0; i < *n; ++i) {
    const auto count = read_count(r);
    // RegLists indexes its registers with 32 bits.
    if (!count || lists.all().size() + *count > UINT32_MAX ||
        !read_regs(r, lists.append(*count))) {
      return std::nullopt;
    }
  }
  return lists;
}

void write_mfunction(std::vector<uint8_t>& out, const MFunction& fn) {
  write_string(out, fn.name);
  out.push_back(static_cast<uint8_t>(fn.ret_type));
  out.push_back(fn.allocated ? 1 : 0);
  for (size_t c = 0; c < kNumRegClasses; ++c) write_uleb(out, fn.num_vregs[c]);
  for (size_t c = 0; c < kNumRegClasses; ++c) write_uleb(out, fn.num_slots[c]);
  write_regs(out, fn.param_regs);
  write_reg_lists(out, fn.call_sites);
  write_reg_lists(out, fn.local_regs);
  write_uleb(out, fn.blocks.size());
  for (const MBlock& block : fn.blocks) {
    write_uleb(out, block.insts.size());
    for (const MInst& inst : block.insts) write_minst(out, inst);
  }
}

std::optional<MFunction> read_mfunction(ByteReader& r) {
  MFunction fn;
  const auto name = read_string(r);
  const auto ret = r.read_byte();
  const auto allocated = r.read_byte();
  if (!name || !ret || *ret > static_cast<uint8_t>(Type::V128) || !allocated ||
      *allocated > 1) {
    return std::nullopt;
  }
  fn.name = *name;
  fn.ret_type = static_cast<Type>(*ret);
  fn.allocated = *allocated == 1;
  for (size_t c = 0; c < kNumRegClasses; ++c) {
    const auto v = r.read_uleb();
    if (!v || *v > UINT32_MAX) return std::nullopt;
    fn.num_vregs[c] = static_cast<uint32_t>(*v);
  }
  for (size_t c = 0; c < kNumRegClasses; ++c) {
    const auto v = r.read_uleb();
    if (!v || *v > UINT32_MAX) return std::nullopt;
    fn.num_slots[c] = static_cast<uint32_t>(*v);
  }
  const auto nparams = read_count(r);
  if (!nparams) return std::nullopt;
  fn.param_regs.resize(*nparams);
  if (!read_regs(r, fn.param_regs)) return std::nullopt;
  auto sites = read_reg_lists(r);
  auto locals = sites ? read_reg_lists(r) : std::nullopt;
  if (!locals) return std::nullopt;
  fn.call_sites = std::move(*sites);
  fn.local_regs = std::move(*locals);
  const auto nblocks = r.read_uleb();
  if (!nblocks || *nblocks > (1u << 20)) return std::nullopt;
  for (uint64_t b = 0; b < *nblocks; ++b) {
    const auto ninsts = r.read_uleb();
    if (!ninsts || *ninsts > (1u << 24)) return std::nullopt;
    MBlock block;
    block.insts.reserve(static_cast<size_t>(*ninsts));
    for (uint64_t i = 0; i < *ninsts; ++i) {
      const auto inst = read_minst(r);
      if (!inst) return std::nullopt;
      block.insts.push_back(*inst);
    }
    fn.blocks.push_back(std::move(block));
  }
  return fn;
}

void write_statistics(std::vector<uint8_t>& out, const Statistics& stats) {
  write_uleb(out, stats.all().size());
  for (const auto& [key, value] : stats.all()) {
    write_string(out, key);
    write_sleb(out, value);
  }
}

/// Decodes the counters write_statistics wrote straight into `out`;
/// false when one is malformed or names no JIT counter.
bool read_counters(ByteReader& r, JitCounters& out) {
  const auto n = r.read_uleb();
  if (!n || *n > (1u << 16)) return false;
  for (uint64_t i = 0; i < *n; ++i) {
    const auto key = read_string(r);
    const auto value = r.read_sleb();
    if (!key || !value || !out.add_by_key(*key, *value)) return false;
  }
  return true;
}

/// The key block: appended to an entry, and hashed into its filename.
template <typename Out>
void write_key(Out& out, const PersistentCacheKey& key) {
  write_uleb(out, key.content_hash);
  write_uleb(out, key.func_idx);
  out.push_back(static_cast<uint8_t>(key.kind));
  write_string(out, key.options_key);
  write_uleb(out, key.tier);
  write_uleb(out, key.profile_hash);
}

bool key_matches(ByteReader& r, const PersistentCacheKey& key) {
  const auto content_hash = r.read_uleb();
  const auto func_idx = r.read_uleb();
  const auto kind = r.read_byte();
  const auto options_key = read_string(r);
  const auto tier = r.read_uleb();
  const auto profile_hash = r.read_uleb();
  return content_hash && *content_hash == key.content_hash && func_idx &&
         *func_idx == key.func_idx && kind &&
         *kind == static_cast<uint8_t>(key.kind) && options_key &&
         *options_key == key.options_key && tier && *tier == key.tier &&
         profile_hash && *profile_hash == key.profile_hash;
}

/// Digest of the target description the artifact was compiled against:
/// register budgets, capabilities, penalties, and cost overrides all
/// shape emitted code, so any of them changing must invalidate entries.
std::string machine_digest(const MachineDesc& desc) {
  std::string fp = desc.name;
  fp += ":k" + std::to_string(static_cast<int>(desc.kind));
  fp += desc.has_simd ? ":simd" : ":nosimd";
  fp += desc.has_fma ? ":fma" : ":nofma";
  for (size_t c = 0; c < kNumRegClasses; ++c) {
    fp += ":r" + std::to_string(desc.regs[c]);
  }
  fp += ":p" + std::to_string(desc.load_use_penalty) + "," +
        std::to_string(desc.taken_branch_penalty) + "," +
        std::to_string(desc.mispredict_penalty);
  for (const auto& [op, cycles] : desc.cost_overrides) {
    fp += ":c" + std::to_string(op) + "=" + std::to_string(cycles);
  }
  return fp;
}

/// machine_digest of a target's registered description, computed once
/// per process (the registry's descriptions never change).
const std::string& machine_fingerprint(TargetKind kind) {
  static const std::vector<std::string> digests = [] {
    std::vector<std::string> out(all_targets().size());
    for (const TargetKind k : all_targets()) {
      out.at(static_cast<size_t>(k)) = machine_digest(target_desc(k));
    }
    return out;
  }();
  return digests[static_cast<size_t>(kind)];
}

/// The build fingerprint of (kind, options_key) in its pieces, in order:
/// build_fingerprint joins them, and load compares a stored fingerprint
/// against them without joining.
std::array<std::string_view, 6> fingerprint_parts(
    TargetKind kind, std::string_view options_key) {
  static const std::string schema =
      "schema=" + std::to_string(kPersistSchemaVersion) + ";target=";
  return {schema,      machine_fingerprint(kind), ";jit=",
          options_key, ";compiler=",              kCompilerStamp};
}

bool fingerprint_matches(std::string_view stored, TargetKind kind,
                         std::string_view options_key) {
  for (const std::string_view part : fingerprint_parts(kind, options_key)) {
    if (!stored.starts_with(part)) return false;
    stored.remove_prefix(part.size());
  }
  return stored.empty();
}

/// The whole file at `path`, read with one open, fstat and read; nullopt
/// when it cannot be opened or read (a miss, like a missing file).
std::optional<std::vector<uint8_t>> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  std::optional<std::vector<uint8_t>> bytes;
  struct stat st {};
  if (::fstat(fd, &st) == 0) {
    bytes.emplace(static_cast<size_t>(st.st_size));
    size_t got = 0;
    ssize_t n = 1;
    while (got < bytes->size() &&
           (n = ::read(fd, bytes->data() + got, bytes->size() - got)) > 0) {
      got += static_cast<size_t>(n);
    }
    // A file cut short since fstat keeps what was read: the CRC rejects it.
    if (n < 0) {
      bytes.reset();
    } else {
      bytes->resize(got);
    }
  }
  ::close(fd);
  return bytes;
}

}  // namespace

// --- PersistentCache -------------------------------------------------------

Result<PersistentCache> PersistentCache::open(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Result<PersistentCache>::failure(
        "persistent cache: cannot create directory '" + dir +
        "': " + ec.message());
  }
  if (!fs::is_directory(dir, ec)) {
    return Result<PersistentCache>::failure("persistent cache: '" + dir +
                                            "' is not a directory");
  }
  // Write probe: a store that cannot be written would degrade every
  // compile to a failed write-back; surface that at configuration time.
  const std::string probe =
      (fs::path(dir) / (".probe." + std::to_string(getpid()))).string();
  std::FILE* f = std::fopen(probe.c_str(), "wb");
  if (!f) {
    return Result<PersistentCache>::failure("persistent cache: '" + dir +
                                            "' is not writable");
  }
  std::fclose(f);
  fs::remove(probe, ec);
  return PersistentCache(dir);
}

std::string PersistentCache::build_fingerprint(
    TargetKind kind, const std::string& options_key) {
  std::string fp;
  for (const std::string_view part : fingerprint_parts(kind, options_key)) {
    fp += part;
  }
  return fp;
}

std::vector<uint64_t> PersistentCache::content_hashes(const Module& module) {
  // Interface digest: every function's name and signature. Call lowering
  // reads callee signatures (argument registers, return class), so a
  // function's machine code depends on the whole module interface even
  // when its own body is unchanged.
  uint64_t interface_digest = kFnvOffset;
  for (const Function& fn : module.functions()) {
    interface_digest = fnv1a_str(fn.name(), interface_digest);
    for (const Type t : fn.sig().params) {
      const uint8_t b = static_cast<uint8_t>(t);
      interface_digest = fnv1a({&b, 1}, interface_digest);
    }
    const uint8_t ret = static_cast<uint8_t>(fn.sig().ret);
    interface_digest = fnv1a({&ret, 1}, interface_digest);
  }

  std::vector<uint64_t> hashes;
  hashes.reserve(module.num_functions());
  for (const Function& fn : module.functions()) {
    const std::vector<uint8_t> image = serialize_function(fn);
    hashes.push_back(fnv1a(image, interface_digest));
  }
  return hashes;
}

std::string PersistentCache::entry_path(const PersistentCacheKey& key) const {
  // A 64-bit digest over the full key (and nothing else -- the
  // fingerprint is validated from the file body, so a rebuilt binary
  // overwrites stale entries in place instead of accumulating orphans).
  Fnv1aSink digest;
  write_key(digest, key);
  static constexpr char kHex[] = "0123456789abcdef";
  std::string path;
  path.reserve(dir_.size() + 1 + 16 + 5);
  path += dir_;
  if (!path.empty() && path.back() != '/') path += '/';
  for (int shift = 60; shift >= 0; shift -= 4) {
    path += kHex[(digest.h >> shift) & 0xf];
  }
  path += ".svcc";
  return path;
}

PersistentCache::LoadResult PersistentCache::load(
    const PersistentCacheKey& key) const {
  const auto bytes = read_file(entry_path(key));
  if (!bytes) return {LoadStatus::Miss, nullptr};
  // Validation order: CRC over the whole body first (rejects truncation
  // and bit rot in one check), then magic/version/fingerprint/key, then
  // the payload decode -- every failure is a Reject, never a crash.
  const auto reject = LoadResult{LoadStatus::Reject, nullptr};
  if (bytes->size() < sizeof(kEntryMagic) + 4) return reject;
  const auto body = std::span<const uint8_t>(*bytes).first(bytes->size() - 4);
  uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |= static_cast<uint32_t>((*bytes)[bytes->size() - 4 + i])
                  << (8 * i);
  }
  if (crc32(body) != stored_crc) return reject;

  ByteReader r(body);
  const auto magic = r.read_bytes(sizeof(kEntryMagic));
  if (!magic ||
      !std::equal(magic->begin(), magic->end(), std::begin(kEntryMagic))) {
    return reject;
  }
  const auto version = r.read_uleb();
  if (!version || *version != kPersistSchemaVersion) return reject;
  const auto fingerprint = read_string(r);
  if (!fingerprint ||
      !fingerprint_matches(*fingerprint, key.kind, key.options_key)) {
    return reject;
  }
  // Filename hashes can collide across keys; the embedded key disambiguates.
  if (!key_matches(r, key)) return reject;

  auto artifact = std::make_shared<JitArtifact>();
  auto code = read_mfunction(r);
  if (!code) return reject;
  artifact->code = std::move(*code);
  if (!read_counters(r, artifact->stats)) return reject;
  const auto seconds_bits = r.read_bytes(8);
  if (!seconds_bits || !r.at_end()) return reject;
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>((*seconds_bits)[i]) << (8 * i);
  }
  // The *original* compile cost: what this disk hit saved.
  artifact->compile_seconds = std::bit_cast<double>(bits);
  return {LoadStatus::Hit,
          std::shared_ptr<const JitArtifact>(std::move(artifact))};
}

bool PersistentCache::store(const PersistentCacheKey& key,
                            const JitArtifact& artifact,
                            const std::string* fingerprint_override) const {
  std::vector<uint8_t> out(std::begin(kEntryMagic), std::end(kEntryMagic));
  write_uleb(out, kPersistSchemaVersion);
  write_string(out, fingerprint_override
                        ? *fingerprint_override
                        : build_fingerprint(key.kind, key.options_key));
  write_key(out, key);
  write_mfunction(out, artifact.code);
  Statistics stats;
  artifact.stats.add_to(stats);
  write_statistics(out, stats);
  const uint64_t bits = std::bit_cast<uint64_t>(artifact.compile_seconds);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>((bits >> (8 * i)) & 0xff));
  }
  const uint32_t crc = crc32(out);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>((crc >> (8 * i)) & 0xff));
  }

  // Atomic publish: write a process-unique temp file in the store
  // directory, then rename over the final name. Readers in any process
  // observe either no entry or a complete one; same-key racers settle on
  // a single winner (the same code either way).
  static std::atomic<uint64_t> temp_counter{0};
  namespace fs = std::filesystem;
  const std::string final_path = entry_path(key);
  const std::string temp_path =
      final_path + ".tmp." + std::to_string(getpid()) + "." +
      std::to_string(temp_counter.fetch_add(1, std::memory_order_relaxed));
  std::FILE* f = std::fopen(temp_path.c_str(), "wb");
  if (!f) return false;
  const bool wrote = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  const bool closed = std::fclose(f) == 0;
  std::error_code ec;
  if (!wrote || !closed) {
    fs::remove(temp_path, ec);
    return false;
  }
  fs::rename(temp_path, final_path, ec);
  if (ec) {
    fs::remove(temp_path, ec);
    return false;
  }
  return true;
}

}  // namespace svc

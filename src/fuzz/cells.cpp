#include "fuzz/cells.h"

#include <algorithm>
#include <unordered_set>

#include "support/pass_manager.h"
#include "support/rng.h"
#include "targets/target_registry.h"

namespace svc::fuzz {

namespace {

const char* tier_name(TierMode t) {
  switch (t) {
    case TierMode::Eager: return "eager";
    case TierMode::Tiered: return "tiered";
    case TierMode::Tier2: return "tier2";
  }
  return "eager";
}

const char* alloc_name(AllocPolicy a) {
  switch (a) {
    case AllocPolicy::NaiveOnline: return "naive";
    case AllocPolicy::LinearScan: return "linear";
    case AllocPolicy::SplitGuided: return "split";
    case AllocPolicy::OfflineChaitin: return "chaitin";
  }
  return "linear";
}

std::optional<TargetKind> parse_target(std::string_view s) {
  for (const TargetKind k : all_targets()) {
    if (target_desc(k).name == s) return k;
  }
  return std::nullopt;
}

// Re-renders a pipeline spec with consecutive duplicate passes dropped
// (running cleanup twice in a row is running it once); returns the input
// unchanged when it does not parse (build() will report it properly).
std::string dedupe_pipeline(const std::string& spec) {
  const auto parsed = PipelineSpec::parse(spec);
  if (!parsed) return spec;
  PipelineSpec out;
  for (const std::string& name : parsed->names()) {
    if (out.names().empty() || out.names().back() != name) out.append(name);
  }
  return out.str();
}

}  // namespace

std::string Cell::key() const {
  std::string out = target_desc(target).name;
  out += '/';
  out += tier_name(tier);
  out += '/';
  out += alloc_name(alloc);
  out += '/';
  if (tier == TierMode::Eager) {
    out += '-';
  } else if (dispatch == DispatchKind::Switch) {
    out += "switch";
  } else {
    out += "threaded";
  }
  out += "/off=";
  out += offline_pipeline.empty() ? "default" : offline_pipeline;
  out += "/jit=";
  out += jit_pipeline.empty() ? "default" : jit_pipeline;
  if (warm_boot) out += "/warm";
  return out;
}

Cell canonicalize(const Cell& cell) {
  Cell c = cell;
  if (c.dispatch == DispatchKind::Threaded &&
      !Interpreter::threaded_available()) {
    // The build serves Threaded requests on the switch engine anyway.
    c.dispatch = DispatchKind::Switch;
  }
  if (c.tier == TierMode::Eager) {
    // No tier 0 -> the dispatch axis does not exist for this cell.
    c.dispatch = DispatchKind::Switch;
  }
  c.offline_pipeline = dedupe_pipeline(c.offline_pipeline);
  c.jit_pipeline = dedupe_pipeline(c.jit_pipeline);
  // Warm-boot cells exercise the AOT story: eager, so both boots compile
  // (or disk-load) everything at deploy.
  if (c.warm_boot) {
    c.tier = TierMode::Eager;
    c.dispatch = DispatchKind::Switch;
  }
  return c;
}

std::optional<Cell> parse_cell(std::string_view text) {
  std::vector<std::string_view> fields;
  while (!text.empty()) {
    const size_t slash = text.find('/');
    fields.push_back(text.substr(0, slash));
    if (slash == std::string_view::npos) break;
    text.remove_prefix(slash + 1);
  }
  if (fields.size() < 6 || fields.size() > 7) return std::nullopt;

  Cell c;
  const auto target = parse_target(fields[0]);
  if (!target) return std::nullopt;
  c.target = *target;

  if (fields[1] == "eager") {
    c.tier = TierMode::Eager;
  } else if (fields[1] == "tiered") {
    c.tier = TierMode::Tiered;
  } else if (fields[1] == "tier2") {
    c.tier = TierMode::Tier2;
  } else {
    return std::nullopt;
  }

  if (fields[2] == "naive") {
    c.alloc = AllocPolicy::NaiveOnline;
  } else if (fields[2] == "linear") {
    c.alloc = AllocPolicy::LinearScan;
  } else if (fields[2] == "split") {
    c.alloc = AllocPolicy::SplitGuided;
  } else if (fields[2] == "chaitin") {
    c.alloc = AllocPolicy::OfflineChaitin;
  } else {
    return std::nullopt;
  }

  if (fields[3] == "switch" || fields[3] == "-") {
    c.dispatch = DispatchKind::Switch;
  } else if (fields[3] == "threaded") {
    c.dispatch = DispatchKind::Threaded;
  } else {
    return std::nullopt;
  }

  if (!fields[4].starts_with("off=") || !fields[5].starts_with("jit=")) {
    return std::nullopt;
  }
  const std::string_view off = fields[4].substr(4);
  const std::string_view jit = fields[5].substr(4);
  if (off != "default") c.offline_pipeline = std::string(off);
  if (jit != "default") c.jit_pipeline = std::string(jit);

  if (fields.size() == 7) {
    if (fields[6] != "warm") return std::nullopt;
    c.warm_boot = true;
  }
  return canonicalize(c);
}

std::optional<std::vector<Cell>> parse_cell_list(std::string_view text) {
  std::vector<Cell> out;
  while (!text.empty()) {
    const size_t semi = text.find(';');
    const std::string_view one = text.substr(0, semi);
    if (!one.empty()) {
      const auto cell = parse_cell(one);
      if (!cell) return std::nullopt;
      out.push_back(*cell);
    }
    if (semi == std::string_view::npos) break;
    text.remove_prefix(semi + 1);
  }
  if (out.empty()) return std::nullopt;
  return out;
}

std::string render_cell_list(const std::vector<Cell>& cells) {
  std::string out;
  for (const Cell& c : cells) {
    if (!out.empty()) out += ';';
    out += c.key();
  }
  return out;
}

std::vector<Cell> build_cell_matrix(uint64_t seed,
                                    const ProgramFeatures& features,
                                    size_t max_cells) {
  Rng rng = Rng(seed).fork(0xCE115);
  std::vector<Cell> raw;
  const auto add = [&raw](TargetKind target, TierMode tier) -> Cell& {
    Cell c;
    c.target = target;
    c.tier = tier;
    raw.push_back(std::move(c));
    return raw.back();
  };

  // Base coverage: every target, eager and tiered, default pipelines.
  for (const TargetKind t : all_targets()) {
    add(t, TierMode::Eager);
    add(t, TierMode::Tiered);
  }

  // Tier-0 dispatch variants (the switch engine doubles as the oracle,
  // but here it runs through the full tiered runtime path).
  add(TargetKind::X86Sim, TierMode::Tiered).dispatch = DispatchKind::Switch;

  // Register-allocator diversity on rotating targets.
  add(TargetKind::SparcSim, TierMode::Eager).alloc = AllocPolicy::NaiveOnline;
  add(TargetKind::PpcSim, TierMode::Eager).alloc = AllocPolicy::SplitGuided;
  add(TargetKind::X86Sim, TierMode::Eager).alloc = AllocPolicy::OfflineChaitin;

  // Pipeline variants are only worth buying for programs with loops --
  // vectorize/licm/if_convert decisions cannot diverge otherwise.
  if (features.loops > 0) {
    static const char* kOffline[] = {
        "coalesce,fold,simplify,dce,licm,if_convert,cleanup,vectorize",
        "fold,simplify,dce,cleanup",
        "fold,dce,cleanup",
        "fold,simplify,dce,if_convert,cleanup,vectorize",
        "coalesce,fold,simplify,dce,cleanup",
    };
    static const char* kJit[] = {
        "stack_to_reg,peephole,fma,devectorize,regalloc",
        "stack_to_reg,devectorize,regalloc",
        "stack_to_reg,peephole,devectorize,regalloc",
    };
    const size_t variants = features.kernel_loops > 0 ? 4 : 2;
    for (size_t i = 0; i < variants; ++i) {
      const TargetKind t =
          all_targets()[rng.next_below(all_targets().size())];
      Cell& c = add(t, rng.next_bool() ? TierMode::Eager : TierMode::Tiered);
      c.offline_pipeline = kOffline[rng.next_below(5)];
      c.jit_pipeline = kJit[rng.next_below(3)];
    }
  }

  // Tier-2 re-specialization needs several runs to cross two promotion
  // thresholds; only cheap programs buy those cells.
  if (features.est_cost < (1u << 17)) {
    add(TargetKind::X86Sim, TierMode::Tier2);
    add(all_targets()[rng.next_below(all_targets().size())],
        TierMode::Tier2);
  }

  // One cold-vs-warm persistent-cache cell per program.
  add(all_targets()[rng.next_below(all_targets().size())],
      TierMode::Eager)
      .warm_boot = true;

  // Canonicalize, dedupe by key (order-preserving), bound.
  std::vector<Cell> out;
  std::unordered_set<std::string> seen;
  for (const Cell& c : raw) {
    Cell canon = canonicalize(c);
    if (seen.insert(canon.key()).second) out.push_back(std::move(canon));
  }
  if (out.size() > max_cells) out.resize(max_cells);
  return out;
}

}  // namespace svc::fuzz

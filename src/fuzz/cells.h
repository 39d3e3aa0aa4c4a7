// The differential harness's configuration lattice: one Cell is one
// (tier x target x pipeline) point every generated program must agree on
// with the tier-0 switch-interpreter oracle. See docs/FUZZING.md.
//
// The raw lattice is huge (4 targets x 3 tier modes x 4 alloc policies x
// 2 dispatch engines x unbounded pipeline strings x boot modes), but
// most of it is redundant: many points are *equivalent by construction*
// (the dispatch axis does not exist for eager deployments, a pipeline
// spec with a repeated cleanup pass compiles identically to the
// deduplicated one). Following the
// configuration-pruning idea in access-control model checking (PAPERS.md:
// CoAChecker prunes equivalent policy states before search), cells are
// canonicalized and deduplicated before any program runs, and the matrix
// a program actually visits is *bounded by its features* (a program with
// no loops buys no vectorize-variant cells; an expensive one buys no
// tier-2 cells).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/generator.h"
#include "regalloc/linear_scan.h"
#include "targets/machine.h"
#include "vm/interpreter.h"

namespace svc::fuzz {

/// How the runtime serves calls in this cell.
enum class TierMode : uint8_t {
  Eager,   // JIT everything at deploy(); one run suffices
  Tiered,  // tier 0 -> tier 1 promotion; run repeatedly to cross it
  Tier2,   // + profiling + profile-guided re-specialization
};

/// One point of the differential matrix. Value type; the canonical key
/// is also the parse/render format, so a failing cell prints as the
/// exact `--cells` operand that replays it.
struct Cell {
  TargetKind target = TargetKind::X86Sim;
  TierMode tier = TierMode::Eager;
  AllocPolicy alloc = AllocPolicy::LinearScan;
  // Tier-0 engine (tiered modes only; collapsed for eager cells).
  DispatchKind dispatch = DispatchKind::Threaded;
  // Pipeline overrides; empty = the engine's default schedule.
  std::string offline_pipeline;
  std::string jit_pipeline;
  // Cold-vs-warm persistent-cache cell: boot the deployment twice
  // against one on-disk store; the warm boot must agree byte-for-byte.
  bool warm_boot = false;

  /// Canonical key, e.g.
  /// "x86sim/tiered/linear/threaded/off=default/jit=default".
  /// Equal keys == equivalent-by-construction cells.
  [[nodiscard]] std::string key() const;
};

/// Normalizes a cell to its equivalence-class representative:
/// eager drops the dispatch axis entirely,
/// threaded downgrades to switch when compiled out, pipeline specs are
/// re-rendered with consecutive duplicate passes removed.
[[nodiscard]] Cell canonicalize(const Cell& cell);

/// Parses a canonical key back into a cell (inverse of Cell::key for
/// canonical cells). Returns nullopt, never dies, on malformed text.
[[nodiscard]] std::optional<Cell> parse_cell(std::string_view text);

/// Parses a ';'-separated list of keys; nullopt if any element fails.
[[nodiscard]] std::optional<std::vector<Cell>> parse_cell_list(
    std::string_view text);

/// Renders cells as the ';'-separated list parse_cell_list accepts.
[[nodiscard]] std::string render_cell_list(const std::vector<Cell>& cells);

/// Builds the deduplicated canonical matrix for one program:
/// deterministic in (seed, features, max_cells). Base cells (every
/// target, eager + tiered, default pipelines) come first; feature-gated
/// cells (pipeline variants for loopy programs, tier-2 for cheap ones,
/// dispatch variants, one warm-boot cell) follow, then the list is
/// truncated to `max_cells`.
[[nodiscard]] std::vector<Cell> build_cell_matrix(
    uint64_t seed, const ProgramFeatures& features, size_t max_cells);

}  // namespace svc::fuzz

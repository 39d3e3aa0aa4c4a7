// Diagnostic engine: collects errors/warnings with source locations.
// Used by the frontend, the verifier and the loaders. Never throws on
// user-input errors; fatal() is reserved for internal invariant breaks.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace svc {

/// A position in a MiniC source buffer (1-based line/column; 0 = unknown).
struct SourceLoc {
  uint32_t line = 0;
  uint32_t column = 0;

  [[nodiscard]] bool valid() const { return line != 0; }
  [[nodiscard]] std::string str() const;
};

enum class Severity : uint8_t { Note, Warning, Error };

struct Diagnostic {
  Severity severity = Severity::Error;
  SourceLoc loc;
  std::string message;

  [[nodiscard]] std::string str() const;
};

/// Diagnostics rendered one per line -- the single formatter behind
/// DiagnosticEngine::dump() and Result<T>::error_text().
[[nodiscard]] std::string render_diagnostics(
    const std::vector<Diagnostic>& diags);

/// Accumulates diagnostics for one compilation. Cheap to move around by
/// reference; owned by the driver.
class DiagnosticEngine {
 public:
  void error(SourceLoc loc, std::string message);
  void warning(SourceLoc loc, std::string message);
  void note(SourceLoc loc, std::string message);

  [[nodiscard]] bool has_errors() const { return error_count_ > 0; }
  [[nodiscard]] size_t error_count() const { return error_count_; }
  [[nodiscard]] const std::vector<Diagnostic>& all() const { return diags_; }

  /// All diagnostics rendered one per line (for tests and CLI output).
  [[nodiscard]] std::string dump() const;

  void clear();

 private:
  std::vector<Diagnostic> diags_;
  size_t error_count_ = 0;
};

/// Aborts with a message. Only for internal invariant violations --
/// malformed *user* input must go through DiagnosticEngine instead.
[[noreturn]] void fatal(std::string_view message);

}  // namespace svc

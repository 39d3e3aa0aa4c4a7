#include "support/diagnostics.h"

#include <cstdio>
#include <cstdlib>

namespace svc {

std::string SourceLoc::str() const {
  if (!valid()) return "<unknown>";
  return std::to_string(line) + ":" + std::to_string(column);
}

std::string Diagnostic::str() const {
  const char* sev = "error";
  switch (severity) {
    case Severity::Note: sev = "note"; break;
    case Severity::Warning: sev = "warning"; break;
    case Severity::Error: sev = "error"; break;
  }
  std::string out;
  if (loc.valid()) {
    out += loc.str();
    out += ": ";
  }
  out += sev;
  out += ": ";
  out += message;
  return out;
}

void DiagnosticEngine::error(SourceLoc loc, std::string message) {
  diags_.push_back({Severity::Error, loc, std::move(message)});
  ++error_count_;
}

void DiagnosticEngine::warning(SourceLoc loc, std::string message) {
  diags_.push_back({Severity::Warning, loc, std::move(message)});
}

void DiagnosticEngine::note(SourceLoc loc, std::string message) {
  diags_.push_back({Severity::Note, loc, std::move(message)});
}

std::string render_diagnostics(const std::vector<Diagnostic>& diags) {
  std::string out;
  for (const auto& d : diags) {
    out += d.str();
    out += '\n';
  }
  return out;
}

std::string DiagnosticEngine::dump() const {
  return render_diagnostics(diags_);
}

void DiagnosticEngine::clear() {
  diags_.clear();
  error_count_ = 0;
}

void fatal(std::string_view message) {
  std::fprintf(stderr, "svc fatal: %.*s\n", static_cast<int>(message.size()),
               message.data());
  std::abort();
}

}  // namespace svc

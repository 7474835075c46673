#include "src/analysis/diagnostics.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string_view>

#include "src/util/json.h"

namespace coral {

const char* DiagSeverityName(DiagSeverity s) {
  switch (s) {
    case DiagSeverity::kError: return "error";
    case DiagSeverity::kWarning: return "warning";
    case DiagSeverity::kNote: return "note";
  }
  return "?";
}

std::string Diagnostic::ToString() const {
  std::ostringstream oss;
  if (loc.valid()) oss << loc.ToString() << ": ";
  oss << DiagSeverityName(severity) << ": ";
  if (!module_name.empty()) oss << "module '" << module_name << "': ";
  oss << message;
  if (code != nullptr && code[0] != '\0') oss << " [" << code << "]";
  return oss.str();
}

std::string Diagnostic::ToJson(const std::string& file) const {
  return JsonWriter()
      .Field("code", code != nullptr ? code : "")
      .Field("severity", DiagSeverityName(severity))
      .Field("file", file)
      .Field("line", loc.line)
      .Field("col", loc.col)
      .Field("module", module_name)
      .Field("pred", pred)
      .Field("message", message)
      .Build();
}

void DiagnosticList::Append(const DiagnosticList& other) {
  items_.insert(items_.end(), other.items_.begin(), other.items_.end());
}

size_t DiagnosticList::error_count() const {
  size_t n = 0;
  for (const Diagnostic& d : items_) {
    if (d.severity == DiagSeverity::kError) ++n;
  }
  return n;
}

size_t DiagnosticList::warning_count() const {
  size_t n = 0;
  for (const Diagnostic& d : items_) {
    if (d.severity == DiagSeverity::kWarning) ++n;
  }
  return n;
}

bool DiagnosticList::ShouldReject(bool strict) const {
  for (const Diagnostic& d : items_) {
    if (d.severity == DiagSeverity::kError) return true;
    if (strict && d.severity == DiagSeverity::kWarning) return true;
  }
  return false;
}

bool DiagnosticList::Has(const char* code) const {
  for (const Diagnostic& d : items_) {
    if (d.code != nullptr && std::strcmp(d.code, code) == 0) return true;
  }
  return false;
}

std::string DiagnosticList::ToString() const {
  std::string out;
  for (const Diagnostic& d : items_) {
    out += d.ToString();
    out += '\n';
  }
  return out;
}

std::string DiagnosticList::RejectionText(bool strict) const {
  std::string out;
  for (const Diagnostic& d : items_) {
    if (d.severity == DiagSeverity::kError ||
        (strict && d.severity == DiagSeverity::kWarning)) {
      if (!out.empty()) out += '\n';
      out += d.ToString();
    }
  }
  return out;
}

void DiagnosticList::SortBySource() {
  std::stable_sort(items_.begin(), items_.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.loc.line != b.loc.line) {
                       return a.loc.line < b.loc.line;
                     }
                     return a.loc.col < b.loc.col;
                   });
}

void DiagnosticList::Normalize() {
  auto code_of = [](const Diagnostic& d) {
    return d.code != nullptr ? std::string_view(d.code)
                             : std::string_view();
  };
  std::stable_sort(items_.begin(), items_.end(),
                   [&](const Diagnostic& a, const Diagnostic& b) {
                     if (a.loc.line != b.loc.line) {
                       return a.loc.line < b.loc.line;
                     }
                     if (a.loc.col != b.loc.col) return a.loc.col < b.loc.col;
                     if (code_of(a) != code_of(b)) {
                       return code_of(a) < code_of(b);
                     }
                     if (a.pred != b.pred) return a.pred < b.pred;
                     return a.message < b.message;
                   });
  items_.erase(
      std::unique(items_.begin(), items_.end(),
                  [&](const Diagnostic& a, const Diagnostic& b) {
                    return a.loc.line == b.loc.line &&
                           a.loc.col == b.loc.col &&
                           code_of(a) == code_of(b) && a.pred == b.pred;
                  }),
      items_.end());
}

std::string DiagnosticList::ToJsonLines(const std::string& file) const {
  std::string out;
  for (const Diagnostic& d : items_) {
    out += d.ToJson(file);
    out += '\n';
  }
  return out;
}

}  // namespace coral

// Copyright (c) 1993-style CORAL reproduction authors.
// JSON string escaping, shared by every JSON emitter in the tree: the
// wire protocol, trace and storage-event lines, lint diagnostics and the
// bytecode verifier's verdicts.

#ifndef CORAL_UTIL_JSON_ESCAPE_H_
#define CORAL_UTIL_JSON_ESCAPE_H_

#include <string>
#include <string_view>

namespace coral {

/// Appends `s` escaped for use inside a JSON string literal (no quotes):
/// quote, backslash, \n, \r and \t get their short escapes, other control
/// bytes \u00XX; everything else (UTF-8 included) is copied through.
void AppendJsonEscaped(std::string_view s, std::string* out);

/// `s` escaped for use inside a JSON string literal (no quotes).
inline std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscaped(s, &out);
  return out;
}

}  // namespace coral

#endif  // CORAL_UTIL_JSON_ESCAPE_H_

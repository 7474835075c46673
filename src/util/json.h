// Copyright (c) 1993-style CORAL reproduction authors.
// The engine's one JSON codec: a recursive descent parser into a small
// value tree, and a flat-object writer. Every JSON document in the tree
// goes through here — the server wire protocol and its stats document
// (docs/SERVER.md), trace lines (obs::TraceEvent), lint diagnostics and
// the bytecode verifier's verdicts.

#ifndef CORAL_UTIL_JSON_H_
#define CORAL_UTIL_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace coral {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::string string_value;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Object member lookup; null when absent or not an object.
  const JsonValue* Find(const std::string& key) const {
    if (kind != Kind::kObject) return nullptr;
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
  /// Member as string with default.
  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const {
    const JsonValue* v = Find(key);
    return v != nullptr && v->is_string() ? v->string_value : fallback;
  }
  /// This number as an integer. Input numbers are untrusted: a value that
  /// is not a number, not finite, not integral or outside int64_t's range
  /// is InvalidArgument (casting it would be undefined behaviour).
  StatusOr<int64_t> AsInt() const;
  /// Member as integer with default; the default also stands in for a
  /// member AsInt rejects.
  int64_t GetInt(const std::string& key, int64_t fallback = 0) const {
    const JsonValue* v = Find(key);
    if (v == nullptr) return fallback;
    StatusOr<int64_t> n = v->AsInt();
    return n.ok() ? *n : fallback;
  }
};

/// Arrays and objects nested deeper than this are InvalidArgument, so an
/// untrusted document cannot exhaust the parser's stack.
inline constexpr int kMaxJsonDepth = 64;

/// Parses one JSON document; trailing garbage is an error.
StatusOr<JsonValue> ParseJson(std::string_view text);

/// Incremental flat-object builder. Strings are escaped (quote,
/// backslash, \n, \r and \t get their short escapes, other control bytes
/// \u00XX; UTF-8 is copied through); doubles print as "%.6g".
class JsonWriter {
 public:
  JsonWriter() : out_("{") {}
  JsonWriter& Field(std::string_view key, std::string_view value) {
    Key(key);
    AppendString(value);
    return *this;
  }
  // Exact match for string literals (otherwise const char* would prefer
  // the standard conversion to bool over string_view).
  JsonWriter& Field(std::string_view key, const char* value) {
    return Field(key, std::string_view(value));
  }
  JsonWriter& Field(std::string_view key, const std::string& value) {
    return Field(key, std::string_view(value));
  }
  JsonWriter& Field(std::string_view key, int value) {
    return Field(key, static_cast<int64_t>(value));
  }
  JsonWriter& Field(std::string_view key, uint32_t value) {
    return Field(key, static_cast<uint64_t>(value));
  }
  JsonWriter& Field(std::string_view key, int64_t value) {
    Key(key);
    out_ += std::to_string(value);
    return *this;
  }
  JsonWriter& Field(std::string_view key, uint64_t value) {
    Key(key);
    out_ += std::to_string(value);
    return *this;
  }
  JsonWriter& Field(std::string_view key, double value);
  JsonWriter& Field(std::string_view key, bool value) {
    Key(key);
    out_ += value ? "true" : "false";
    return *this;
  }
  /// Emits `raw` verbatim as the member value (must be valid JSON).
  JsonWriter& RawField(std::string_view key, std::string_view raw) {
    Key(key);
    out_ += raw;
    return *this;
  }
  /// Emits `[items...]`; each item is a document already built by a
  /// JsonWriter.
  JsonWriter& ArrayField(std::string_view key,
                         const std::vector<std::string>& items);
  std::string Build() {
    out_ += '}';
    return std::move(out_);
  }

 private:
  void Key(std::string_view key) {
    if (out_.size() > 1) out_ += ',';
    AppendString(key);
    out_ += ':';
  }
  // Appends `s` quoted and escaped.
  void AppendString(std::string_view s);

  std::string out_;
};

}  // namespace coral

#endif  // CORAL_UTIL_JSON_H_

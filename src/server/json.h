// Copyright (c) 1993-style CORAL reproduction authors.
// Minimal JSON for the wire protocol (docs/SERVER.md): a recursive
// descent parser into a small value tree, plus string escaping and an
// object builder. Deliberately tiny — the protocol uses flat objects of
// strings and numbers; nesting support exists only so clients can send
// structured bindings.

#ifndef CORAL_SERVER_JSON_H_
#define CORAL_SERVER_JSON_H_

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/json_escape.h"
#include "src/util/status.h"

namespace coral::server {

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
  /// This number as an integer. Wire numbers are untrusted: a value that
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

/// Parses one JSON document; trailing garbage is an error.
StatusOr<JsonValue> ParseJson(std::string_view text);

/// The shared escaper (src/util/json_escape.h), under its wire name.
using ::coral::JsonEscape;

/// Incremental flat-object builder for responses.
class JsonWriter {
 public:
  JsonWriter() : out_("{") {}
  JsonWriter& Field(std::string_view key, std::string_view value) {
    Key(key);
    out_ += '"';
    AppendJsonEscaped(value, &out_);
    out_ += '"';
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
  JsonWriter& Field(std::string_view key, double value) {
    Key(key);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    out_ += buf;
    return *this;
  }
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
  std::string Build() {
    out_ += '}';
    return std::move(out_);
  }

 private:
  void Key(std::string_view key) {
    if (out_.size() > 1) out_ += ',';
    out_ += '"';
    AppendJsonEscaped(key, &out_);
    out_ += "\":";
  }
  std::string out_;
};

}  // namespace coral::server

#endif  // CORAL_SERVER_JSON_H_

#include "src/util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace coral {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    CORAL_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("json: trailing characters at offset " +
                                     std::to_string(pos_));
    }
    return v;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Err(const std::string& what) {
    return Status::InvalidArgument("json: " + what + " at offset " +
                                   std::to_string(pos_));
  }

  StatusOr<JsonValue> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) return Err("unexpected end");
    char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxJsonDepth) {
          return Err("nesting deeper than " + std::to_string(kMaxJsonDepth));
        }
        ++depth_;
        StatusOr<JsonValue> v = c == '{' ? ParseObject() : ParseArray();
        --depth_;
        return v;
      }
      case '"': return ParseString();
      case 't':
      case 'f': return ParseBool();
      case 'n': return ParseNull();
      default: return ParseNumber();
    }
  }

  StatusOr<JsonValue> ParseObject() {
    ++pos_;  // '{'
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    if (Consume('}')) return v;
    while (true) {
      SkipSpace();
      CORAL_ASSIGN_OR_RETURN(JsonValue key, ParseString());
      if (!Consume(':')) return Err("expected ':'");
      CORAL_ASSIGN_OR_RETURN(JsonValue val, ParseValue());
      v.object.emplace(std::move(key.string_value), std::move(val));
      if (Consume(',')) continue;
      if (Consume('}')) return v;
      return Err("expected ',' or '}'");
    }
  }

  StatusOr<JsonValue> ParseArray() {
    ++pos_;  // '['
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    if (Consume(']')) return v;
    while (true) {
      CORAL_ASSIGN_OR_RETURN(JsonValue elem, ParseValue());
      v.array.push_back(std::move(elem));
      if (Consume(',')) continue;
      if (Consume(']')) return v;
      return Err("expected ',' or ']'");
    }
  }

  StatusOr<JsonValue> ParseString() {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Err("expected string");
    }
    ++pos_;
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return v;
      if (c != '\\') {
        v.string_value.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Err("bad escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': v.string_value.push_back('"'); break;
        case '\\': v.string_value.push_back('\\'); break;
        case '/': v.string_value.push_back('/'); break;
        case 'b': v.string_value.push_back('\b'); break;
        case 'f': v.string_value.push_back('\f'); break;
        case 'n': v.string_value.push_back('\n'); break;
        case 'r': v.string_value.push_back('\r'); break;
        case 't': v.string_value.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Err("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Err("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported;
          // payloads are CORAL program text and trace details).
          if (code < 0x80) {
            v.string_value.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            v.string_value.push_back(static_cast<char>(0xC0 | (code >> 6)));
            v.string_value.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            v.string_value.push_back(static_cast<char>(0xE0 | (code >> 12)));
            v.string_value.push_back(
                static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            v.string_value.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return Err("bad escape");
      }
    }
    return Err("unterminated string");
  }

  StatusOr<JsonValue> ParseBool() {
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      v.bool_value = true;
      return v;
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      v.bool_value = false;
      return v;
    }
    return Err("bad literal");
  }

  StatusOr<JsonValue> ParseNull() {
    if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
      return JsonValue{};
    }
    return Err("bad literal");
  }

  StatusOr<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return Err("expected value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    v.number = std::strtod(num.c_str(), &end);
    if (end == nullptr || *end != '\0') return Err("bad number");
    return v;
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;  // open arrays and objects
};

}  // namespace

StatusOr<int64_t> JsonValue::AsInt() const {
  // 2^63 is exact as a double; int64_t covers [-2^63, 2^63).
  constexpr double kLimit = 9223372036854775808.0;
  if (!is_number() || !std::isfinite(number) ||
      number != std::trunc(number) || number < -kLimit ||
      number >= kLimit) {
    return Status::InvalidArgument(
        "json: expected an integer in int64 range");
  }
  return static_cast<int64_t>(number);
}

StatusOr<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

JsonWriter& JsonWriter::Field(std::string_view key, double value) {
  Key(key);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::ArrayField(std::string_view key,
                                   const std::vector<std::string>& items) {
  Key(key);
  out_ += '[';
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out_ += ',';
    out_ += items[i];
  }
  out_ += ']';
  return *this;
}

void JsonWriter::AppendString(std::string_view s) {
  out_ += '"';
  for (char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out_ += buf;
        } else {
          out_.push_back(c);
        }
    }
  }
  out_ += '"';
}

}  // namespace coral

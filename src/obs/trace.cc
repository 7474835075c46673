#include "src/obs/trace.h"

#include <cctype>
#include <cstdlib>

#include "src/util/json_escape.h"

namespace coral::obs {
namespace {

// A minimal JSON writer/reader for the flat TraceEvent schema: events
// have only string and unsigned fields, one object per line.

// Appends `s` as a quoted JSON string.
void AppendQuoted(std::string_view s, std::string* out) {
  out->push_back('"');
  AppendJsonEscaped(s, out);
  out->push_back('"');
}

void AppendField(const char* key, const std::string& value, bool* first,
                 std::string* out) {
  if (value.empty()) return;
  *out += *first ? "" : ",";
  *first = false;
  AppendQuoted(key, out);
  out->push_back(':');
  AppendQuoted(value, out);
}

void AppendField(const char* key, uint64_t value, bool* first,
                 std::string* out) {
  *out += *first ? "" : ",";
  *first = false;
  AppendQuoted(key, out);
  out->push_back(':');
  *out += std::to_string(value);
}

/// Cursor over one JSON line; only the subset ToJson emits.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& s) : s_(s) {}

  void SkipSpace() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool AtEnd() {
    SkipSpace();
    return pos_ >= s_.size();
  }

  bool ReadString(std::string* out) {
    SkipSpace();
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      char esc = s_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          unsigned code = static_cast<unsigned>(
              std::strtoul(s_.substr(pos_, 4).c_str(), nullptr, 16));
          pos_ += 4;
          // ToJson only emits \u00xx for control bytes.
          out->push_back(static_cast<char>(code & 0xff));
          break;
        }
        default: return false;
      }
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool ReadNumber(uint64_t* out) {
    SkipSpace();
    size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) return false;
    *out = std::strtoull(s_.substr(start, pos_ - start).c_str(), nullptr, 10);
    return true;
  }

 private:
  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

const char* TraceKindName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kModuleCall: return "module_call";
    case TraceKind::kModuleDone: return "module_done";
    case TraceKind::kIterBegin: return "iter_begin";
    case TraceKind::kIterEnd: return "iter_end";
    case TraceKind::kRuleFire: return "rule_fire";
    case TraceKind::kInsert: return "insert";
  }
  return "unknown";
}

std::string TraceEvent::ToJson() const {
  std::string out = "{";
  bool first = true;
  AppendField("ev", std::string(TraceKindName(kind)), &first, &out);
  AppendField("module", module, &first, &out);
  AppendField("pred", pred, &first, &out);
  AppendField("detail", detail, &first, &out);
  if (scc >= 0) AppendField("scc", static_cast<uint64_t>(scc), &first, &out);
  if (rule >= 0) {
    AppendField("rule", static_cast<uint64_t>(rule), &first, &out);
  }
  if (iter != 0) AppendField("iter", iter, &first, &out);
  if (count != 0) AppendField("count", count, &first, &out);
  if (ns != 0) AppendField("ns", ns, &first, &out);
  out.push_back('}');
  return out;
}

StatusOr<TraceEvent> TraceEvent::FromJson(const std::string& line) {
  JsonCursor cur(line);
  if (!cur.Consume('{')) {
    return Status::InvalidArgument("trace line is not a JSON object: " +
                                   line);
  }
  TraceEvent ev;
  bool have_kind = false;
  bool first = true;
  while (true) {
    if (cur.Consume('}')) break;
    if (!first && !cur.Consume(',')) {
      return Status::InvalidArgument("expected ',' or '}' in trace line: " +
                                     line);
    }
    first = false;
    std::string key;
    if (!cur.ReadString(&key) || !cur.Consume(':')) {
      return Status::InvalidArgument("bad key in trace line: " + line);
    }
    if (key == "ev" || key == "module" || key == "pred" || key == "detail") {
      std::string value;
      if (!cur.ReadString(&value)) {
        return Status::InvalidArgument("bad string value for \"" + key +
                                       "\": " + line);
      }
      if (key == "module") {
        ev.module = std::move(value);
      } else if (key == "pred") {
        ev.pred = std::move(value);
      } else if (key == "detail") {
        ev.detail = std::move(value);
      } else {
        have_kind = true;
        if (value == "module_call") ev.kind = TraceKind::kModuleCall;
        else if (value == "module_done") ev.kind = TraceKind::kModuleDone;
        else if (value == "iter_begin") ev.kind = TraceKind::kIterBegin;
        else if (value == "iter_end") ev.kind = TraceKind::kIterEnd;
        else if (value == "rule_fire") ev.kind = TraceKind::kRuleFire;
        else if (value == "insert") ev.kind = TraceKind::kInsert;
        else have_kind = false;
      }
    } else {
      uint64_t value = 0;
      if (!cur.ReadNumber(&value)) {
        return Status::InvalidArgument("bad numeric value for \"" + key +
                                       "\": " + line);
      }
      if (key == "scc") ev.scc = static_cast<int32_t>(value);
      else if (key == "rule") ev.rule = static_cast<int32_t>(value);
      else if (key == "iter") ev.iter = value;
      else if (key == "count") ev.count = value;
      else if (key == "ns") ev.ns = value;
      // Unknown numeric keys are ignored (forward compatibility).
    }
  }
  if (!cur.AtEnd()) {
    return Status::InvalidArgument("trailing content in trace line: " + line);
  }
  if (!have_kind) {
    return Status::InvalidArgument("missing or unknown \"ev\" kind: " + line);
  }
  return ev;
}

}  // namespace coral::obs

#include "src/obs/trace.h"

#include <cstdint>
#include <limits>

#include "src/util/json.h"

namespace coral::obs {
namespace {

// Reads the integer member `key`, when present, into *out. Trace numbers
// are counts and indexes: anything but an integer in [0, max] is
// InvalidArgument.
template <typename T>
Status ReadCount(const JsonValue& doc, const char* key, int64_t max,
                 const std::string& line, T* out) {
  const JsonValue* v = doc.Find(key);
  if (v == nullptr) return Status::OK();
  StatusOr<int64_t> n = v->AsInt();
  if (!n.ok() || *n < 0 || *n > max) {
    return Status::InvalidArgument("bad numeric value for \"" +
                                   std::string(key) + "\": " + line);
  }
  *out = static_cast<T>(*n);
  return Status::OK();
}

// Reads the string member `key`, when present, into *out.
Status ReadString(const JsonValue& doc, const char* key,
                  const std::string& line, std::string* out) {
  const JsonValue* v = doc.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_string()) {
    return Status::InvalidArgument("bad string value for \"" +
                                   std::string(key) + "\": " + line);
  }
  *out = v->string_value;
  return Status::OK();
}

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
  JsonWriter out;
  out.Field("ev", TraceKindName(kind));
  if (!module.empty()) out.Field("module", module);
  if (!pred.empty()) out.Field("pred", pred);
  if (!detail.empty()) out.Field("detail", detail);
  if (scc >= 0) out.Field("scc", scc);
  if (rule >= 0) out.Field("rule", rule);
  if (iter != 0) out.Field("iter", iter);
  if (count != 0) out.Field("count", count);
  if (ns != 0) out.Field("ns", ns);
  return out.Build();
}

StatusOr<TraceEvent> TraceEvent::FromJson(const std::string& line) {
  StatusOr<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok() || !parsed->is_object()) {
    return Status::InvalidArgument("trace line is not a JSON object: " +
                                   line);
  }
  const JsonValue& doc = *parsed;
  TraceEvent ev;
  bool have_kind = false;
  const JsonValue* kind = doc.Find("ev");
  if (kind != nullptr && kind->is_string()) {
    for (TraceKind k : {TraceKind::kModuleCall, TraceKind::kModuleDone,
                        TraceKind::kIterBegin, TraceKind::kIterEnd,
                        TraceKind::kRuleFire, TraceKind::kInsert}) {
      if (kind->string_value == TraceKindName(k)) {
        ev.kind = k;
        have_kind = true;
        break;
      }
    }
  }
  if (!have_kind) {
    return Status::InvalidArgument("missing or unknown \"ev\" kind: " + line);
  }
  // Unknown keys are ignored (forward compatibility). 64-bit counters are
  // bounded by 2^53: the parser holds numbers as doubles, exact up to there.
  constexpr int64_t kInt32Max = std::numeric_limits<int32_t>::max();
  constexpr int64_t kExactMax = int64_t{1} << 53;
  CORAL_RETURN_IF_ERROR(ReadString(doc, "module", line, &ev.module));
  CORAL_RETURN_IF_ERROR(ReadString(doc, "pred", line, &ev.pred));
  CORAL_RETURN_IF_ERROR(ReadString(doc, "detail", line, &ev.detail));
  CORAL_RETURN_IF_ERROR(ReadCount(doc, "scc", kInt32Max, line, &ev.scc));
  CORAL_RETURN_IF_ERROR(ReadCount(doc, "rule", kInt32Max, line, &ev.rule));
  CORAL_RETURN_IF_ERROR(ReadCount(doc, "iter", kExactMax, line, &ev.iter));
  CORAL_RETURN_IF_ERROR(ReadCount(doc, "count", kExactMax, line, &ev.count));
  CORAL_RETURN_IF_ERROR(ReadCount(doc, "ns", kExactMax, line, &ev.ns));
  return ev;
}

}  // namespace coral::obs

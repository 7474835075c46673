#include "src/server/protocol.h"

#include <vector>

#include "src/core/eval_context.h"
#include "src/util/json.h"

namespace coral::server {

namespace {

std::string ErrorResponse(const Status& status) {
  return JsonWriter()
      .Field("ok", false)
      .Field("code", StatusCodeName(status.code()))
      .Field("error", status.message())
      .Build();
}

}  // namespace

std::string ShedResponse() {
  return JsonWriter()
      .Field("ok", false)
      .Field("code", "Unavailable")
      .Field("error", "server overloaded; request shed")
      .Build();
}

ClientSession::ClientSession(ServerContext* ctx)
    : ctx_(ctx), session_(ctx->db, ctx->default_deadline_ms) {
  ctx_->metrics->SessionOpened();
}

ClientSession::~ClientSession() { ctx_->metrics->SessionClosed(); }

std::string ClientSession::Handle(const std::string& line) {
  StatusOr<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) {
    ctx_->metrics->RecordError();
    return ErrorResponse(parsed.status());
  }
  const JsonValue& req = parsed.value();
  std::string op = req.GetString("op");

  if (op == "query") {
    std::string q = req.GetString("q");
    if (q.empty()) {
      ctx_->metrics->RecordError();
      return ErrorResponse(Status::InvalidArgument("query op needs \"q\""));
    }
    return HandleQuery(q);
  }
  if (op == "consult") {
    const JsonValue* program = req.Find("program");
    if (program == nullptr || !program->is_string()) {
      ctx_->metrics->RecordError();
      return ErrorResponse(
          Status::InvalidArgument("consult op needs string \"program\""));
    }
    auto result = session_.Consult(program->string_value);
    if (!result.ok()) {
      ctx_->metrics->RecordError();
      return ErrorResponse(result.status());
    }
    ctx_->metrics->RecordConsult();
    return JsonWriter()
        .Field("ok", true)
        .Field("epoch", session_.db()->snapshot_epoch())
        .Field("queries_in_text",
               static_cast<int64_t>(result.value().size()))
        .Build();
  }
  if (op == "load") {
    const JsonValue* facts = req.Find("facts");
    if (facts == nullptr || !facts->is_string()) {
      ctx_->metrics->RecordError();
      return ErrorResponse(
          Status::InvalidArgument("load op needs string \"facts\""));
    }
    auto result = session_.LoadFacts(facts->string_value);
    if (!result.ok()) {
      ctx_->metrics->RecordError();
      return ErrorResponse(result.status());
    }
    ctx_->metrics->RecordConsult();
    return JsonWriter()
        .Field("ok", true)
        .Field("inserted", static_cast<int64_t>(result.value()))
        .Build();
  }
  if (op == "bind") {
    std::string name = req.GetString("name");
    const JsonValue* value = req.Find("value");
    if (name.empty() || value == nullptr) {
      ctx_->metrics->RecordError();
      return ErrorResponse(
          Status::InvalidArgument("bind op needs \"name\" and \"value\""));
    }
    std::string text;
    if (value->is_string()) {
      text = value->string_value;
    } else {
      StatusOr<int64_t> n = value->AsInt();
      if (!n.ok()) {
        ctx_->metrics->RecordError();
        return ErrorResponse(n.status());
      }
      text = std::to_string(*n);
    }
    session_.Bind(name, text);
    return JsonWriter().Field("ok", true).Build();
  }
  if (op == "deadline") {
    int64_t ms = 0;
    if (const JsonValue* v = req.Find("ms")) {
      StatusOr<int64_t> n = v->AsInt();
      if (!n.ok()) {
        ctx_->metrics->RecordError();
        return ErrorResponse(n.status());
      }
      ms = *n;
    }
    session_.set_deadline_ms(ms);
    return JsonWriter()
        .Field("ok", true)
        .Field("deadline_ms", session_.deadline_ms())
        .Build();
  }
  if (op == "refresh") {
    session_.Refresh();
    return JsonWriter().Field("ok", true).Build();
  }
  if (op == "stats") return HandleStats();
  if (op == "ping") {
    return JsonWriter()
        .Field("ok", true)
        .Field("epoch", session_.db()->snapshot_epoch())
        .Build();
  }
  if (op == "close") {
    closed_ = true;
    return JsonWriter().Field("ok", true).Field("closed", true).Build();
  }
  ctx_->metrics->RecordError();
  return ErrorResponse(
      Status::InvalidArgument("unknown op \"" + op + "\""));
}

std::string ClientSession::HandleQuery(const std::string& q) {
  int64_t start = EvalClockNowNs();
  StatusOr<QueryResult> result = session_.EvalQuery(q);
  int64_t elapsed = EvalClockNowNs() - start;
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kDeadlineExceeded) {
      ctx_->metrics->RecordTimeout();
    } else {
      ctx_->metrics->RecordError();
    }
    return ErrorResponse(result.status());
  }
  ctx_->metrics->RecordQuery(elapsed);

  // Rows render as an array of {var: term-text} objects.
  const QueryResult& qr = result.value();
  std::vector<std::string> rows;
  rows.reserve(qr.rows.size());
  for (const auto& answer : qr.rows) {
    JsonWriter row;
    for (const auto& [name, term] : answer.bindings) {
      row.Field(name, term->ToString());
    }
    rows.push_back(row.Build());
  }
  return JsonWriter()
      .Field("ok", true)
      .Field("epoch", session_.epoch())
      .Field("count", static_cast<int64_t>(qr.rows.size()))
      .Field("elapsed_ms", static_cast<double>(elapsed) / 1e6)
      .ArrayField("rows", rows)
      .Build();
}

std::string ClientSession::HandleStats() const {
  return JsonWriter()
      .Field("ok", true)
      .RawField("server", ctx_->metrics->ToJson())
      .Field("epoch", session_.db()->snapshot_epoch())
      .Build();
}

}  // namespace coral::server

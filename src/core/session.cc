#include "src/core/session.h"

#include <cctype>

#include "src/core/eval_context.h"
#include "src/lang/parser.h"
#include "src/rel/readview.h"

namespace coral {

Session::Session(Database* db, int64_t deadline_ms)
    : db_(db), deadline_ms_(deadline_ms) {
  db_->EnableConcurrentSessions();
}

Session::~Session() = default;

StatusOr<std::string> Session::Substitute(const std::string& text) const {
  if (text.find('$') == std::string::npos) return text;
  std::string out;
  out.reserve(text.size());
  size_t i = 0;
  while (i < text.size()) {
    char c = text[i];
    if (c != '$') {
      out.push_back(c);
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[j])) ||
            text[j] == '_')) {
      ++j;
    }
    if (j == i + 1) {  // bare '$': pass through (not a placeholder)
      out.push_back(c);
      ++i;
      continue;
    }
    std::string name = text.substr(i + 1, j - i - 1);
    auto it = bindings_.find(name);
    if (it == bindings_.end()) {
      return Status::InvalidArgument("unbound session placeholder $" + name);
    }
    out += it->second;
    i = j;
  }
  return out;
}

StatusOr<QueryResult> Session::EvalQuery(const std::string& text) {
  CORAL_ASSIGN_OR_RETURN(std::string query, Substitute(text));
  if (view_ == nullptr) view_ = db_->AcquireReadSnapshot();
  // The scoped view routes every base-relation scan in this thread to the
  // snapshot tables; the deadline is polled inside the join loop.
  ScopedReadView scope(view_.get());
  ScopedEvalDeadline deadline(deadline_ms_);
  return db_->EvalQuery(query);
}

StatusOr<std::vector<Query>> Session::Consult(std::string_view text) {
  auto result = db_->Consult(text);
  // Read-your-writes within a session: pick up the post-commit epoch on
  // the next query.
  Refresh();
  return result;
}

StatusOr<size_t> Session::LoadFacts(std::string_view text) {
  Parser parser(text, db_->factory());
  CORAL_ASSIGN_OR_RETURN(Program prog, parser.ParseProgram());
  if (!prog.queries.empty() || !prog.modules.empty() ||
      !prog.top_indexes.empty() || !prog.top_agg_selections.empty()) {
    return Status::InvalidArgument(
        "LoadFacts text must contain only facts; use Consult for "
        "programs");
  }
  UpdateBatch batch;
  batch.inserts = std::move(prog.top_facts);
  CORAL_ASSIGN_OR_RETURN(UpdateResult result, db_->ApplyUpdate(batch));
  Refresh();
  return result.base_inserted;
}

StatusOr<UpdateResult> Session::ApplyUpdate(std::string_view text) {
  UpdateBatch batch;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t nl = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, nl == std::string_view::npos ? std::string_view::npos
                                          : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    // Trim.
    size_t b = line.find_first_not_of(" \t\r");
    if (b == std::string_view::npos) continue;
    size_t e = line.find_last_not_of(" \t\r");
    line = line.substr(b, e - b + 1);
    if (line.empty() || line[0] == '%') continue;
    char op = line[0];
    if (op != '+' && op != '-') {
      return Status::InvalidArgument(
          "update line must start with '+' or '-': " + std::string(line));
    }
    std::string_view fact_text = line.substr(1);
    Parser parser(fact_text, db_->factory());
    CORAL_ASSIGN_OR_RETURN(Program prog, parser.ParseProgram());
    if (prog.top_facts.size() != 1 || !prog.queries.empty() ||
        !prog.modules.empty() || !prog.top_indexes.empty() ||
        !prog.top_agg_selections.empty()) {
      return Status::InvalidArgument("update line must be one fact: " +
                                     std::string(line));
    }
    if (op == '+') {
      batch.inserts.push_back(std::move(prog.top_facts[0]));
    } else {
      batch.deletes.push_back(std::move(prog.top_facts[0]));
    }
  }
  CORAL_ASSIGN_OR_RETURN(UpdateResult result, db_->ApplyUpdate(batch));
  Refresh();
  return result;
}

}  // namespace coral

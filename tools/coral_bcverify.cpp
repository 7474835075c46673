// coral_bcverify: static bytecode verifier driver (docs/VM.md
// "Verification").
//
//   coral_bcverify [--json] [--no-auto-optimize] file ...
//
// Two input kinds, decided per file by extension:
//
//   *.crl   — consulted as CORAL source; every export form of every
//             module is compiled exactly as the engine would compile it
//             and run through the whole-plan auditor (VerifyProgram +
//             AuditModule: register dataflow, operand bounds, shape,
//             plan consistency, probe-vs-index, type lattice).
//   other   — treated as serialized bytecode: the file is split into
//             "coralbc <version>" chunks, each Deserialize'd (which
//             itself bounds-checks and verifies) and re-verified.
//
// Output is one verdict per program; with --json, one JSON object per
// line:
//   {"file":...,"module":...,"form":...,"scc":N,"kind":"version"|"once",
//    "index":N,"rule":N,"head":"p/2","status":"verified"|"rejected",
//    "findings":[{"severity":...,"code":"CRL3xx","message":...},...]}
// Interpreted (never-compiled) rule versions do not appear; forms that
// fail to compile at all emit a {"status":"error"} object.
//
// Exit code contract (as coral_lint): 0 all programs verified with no
// findings, 1 warnings only, 2 any rejected program, unreadable file,
// or bad usage.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <coral/coral.h>

#include "src/util/json.h"
#include "src/vm/bytecode.h"
#include "src/vm/verifier.h"

namespace {

struct Verdict {
  std::string file;
  std::string module;   // empty for raw bytecode files
  std::string form;     // "p/2(bf)" or empty
  bool from_module = false;
  uint32_t scc = 0;
  bool once = false;
  uint32_t index = 0;
  uint32_t rule = 0;
  std::string head;
  std::string status;   // "verified" | "rejected" | "error"
  std::vector<coral::vm::VerifyFinding> findings;
  std::string error;    // status == "error"
};

std::string RenderJson(const Verdict& v) {
  coral::JsonWriter out;
  out.Field("file", v.file);
  if (!v.module.empty()) out.Field("module", v.module);
  if (!v.form.empty()) out.Field("form", v.form);
  if (v.status == "error" || v.status == "interpreted") {
    return out.Field("status", v.status).Field("message", v.error).Build();
  }
  if (v.from_module) {
    out.Field("scc", v.scc)
        .Field("kind", v.once ? "once" : "version")
        .Field("index", v.index);
  }
  std::vector<std::string> findings;
  for (const coral::vm::VerifyFinding& f : v.findings) {
    findings.push_back(
        coral::JsonWriter()
            .Field("severity", coral::vm::VerifySeverityName(f.severity))
            .Field("code", f.code)
            .Field("message", f.message)
            .Build());
  }
  return out.Field("rule", v.rule)
      .Field("head", v.head)
      .Field("status", v.status)
      .ArrayField("findings", findings)
      .Build();
}

std::string RenderText(const Verdict& v) {
  std::ostringstream os;
  os << v.file << ": ";
  if (!v.module.empty()) os << "module " << v.module << " ";
  if (!v.form.empty()) os << "form " << v.form << " ";
  if (v.status == "error" || v.status == "interpreted") {
    os << v.status << ": " << v.error << "\n";
    return os.str();
  }
  if (v.from_module) {
    os << "scc " << v.scc << " " << (v.once ? "once" : "version") << " "
       << v.index << " ";
  }
  os << "rule " << v.rule << " head " << v.head << ": " << v.status << "\n";
  for (const coral::vm::VerifyFinding& f : v.findings) {
    os << "  " << f.ToString() << "\n";
  }
  return os.str();
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// A .crl file: consult into a fresh database (so @make_index and base
/// facts are in place, matching the engine's compile environment) and
/// audit every export form.
void VerifySourceFile(const std::string& file, const std::string& text,
                      bool auto_optimize, std::vector<Verdict>* out) {
  coral::Database db;
  db.set_auto_optimize(auto_optimize);
  auto consulted = db.Consult(text);
  if (!consulted.ok()) {
    Verdict v;
    v.file = file;
    v.status = "error";
    v.error = consulted.status().message();
    out->push_back(std::move(v));
    return;
  }
  for (coral::ModuleManager::FormBytecodeAudit& fa :
       db.modules()->AuditAllBytecode()) {
    std::string form = fa.pred;
    if (!fa.adornment.empty()) form += "(" + fa.adornment + ")";
    if (!fa.error.empty() || !fa.fallback_reason.empty()) {
      Verdict v;
      v.file = file;
      v.module = fa.module;
      v.form = form;
      // A whole-form interpreter fallback with a stated reason is a
      // legitimate outcome, not a verification failure.
      v.status = fa.error.empty() ? "interpreted" : "error";
      v.error = fa.error.empty() ? fa.fallback_reason : fa.error;
      out->push_back(std::move(v));
      continue;
    }
    for (coral::vm::ProgramVerdict& pv : fa.audit.verdicts) {
      Verdict v;
      v.file = file;
      v.module = fa.module;
      v.form = form;
      v.from_module = true;
      v.scc = pv.scc;
      v.once = pv.once;
      v.index = pv.index;
      v.rule = pv.rule_index;
      v.head = pv.head;
      v.status = pv.report.ok() ? "verified" : "rejected";
      v.findings = std::move(pv.report.findings);
      out->push_back(std::move(v));
    }
  }
}

/// A raw bytecode file: split on "coralbc" header lines and verify each
/// chunk independently.
void VerifyBytecodeFile(const std::string& file, const std::string& text,
                        std::vector<Verdict>* out) {
  coral::Database db;  // supplies the term factory for constant re-parse
  std::vector<std::string> chunks;
  std::istringstream lines(text);
  std::string chunk;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("coralbc", 0) == 0 && !chunk.empty()) {
      chunks.push_back(chunk);
      chunk.clear();
    }
    chunk += line;
    chunk += "\n";
  }
  if (!chunk.empty()) chunks.push_back(chunk);
  if (chunks.empty()) {
    Verdict v;
    v.file = file;
    v.status = "error";
    v.error = "no bytecode programs found (missing 'coralbc' header?)";
    out->push_back(std::move(v));
    return;
  }
  for (const std::string& c : chunks) {
    Verdict v;
    v.file = file;
    auto prog = coral::vm::Deserialize(c, db.factory());
    if (!prog.ok()) {
      v.status = "error";
      v.error = prog.status().message();
      out->push_back(std::move(v));
      continue;
    }
    v.rule = prog->rule_index;
    v.head = prog->head_pred.ToString();
    coral::vm::VerifyReport report = coral::vm::VerifyProgram(*prog);
    v.status = report.ok() ? "verified" : "rejected";
    v.findings = std::move(report.findings);
    out->push_back(std::move(v));
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool auto_optimize = true;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--no-auto-optimize") {
      auto_optimize = false;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: coral_bcverify [--json] [--no-auto-optimize]"
                   " file.crl|file.bc ...\n";
      return 0;
    } else {
      files.push_back(std::move(arg));
    }
  }
  if (files.empty()) {
    std::cerr << "usage: coral_bcverify [--json] [--no-auto-optimize]"
                 " file.crl|file.bc ...\n";
    return 2;
  }

  std::vector<Verdict> verdicts;
  bool io_error = false;
  for (const std::string& file : files) {
    std::ifstream in(file);
    if (!in) {
      std::cerr << file << ": error: cannot open file\n";
      io_error = true;
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    if (EndsWith(file, ".crl")) {
      VerifySourceFile(file, buf.str(), auto_optimize, &verdicts);
    } else {
      VerifyBytecodeFile(file, buf.str(), &verdicts);
    }
  }

  size_t rejected = 0;
  size_t verified = 0;
  size_t interpreted = 0;
  size_t warnings = 0;
  for (const Verdict& v : verdicts) {
    if (v.status == "rejected" || v.status == "error") ++rejected;
    if (v.status == "verified") ++verified;
    if (v.status == "interpreted") ++interpreted;
    for (const coral::vm::VerifyFinding& f : v.findings) {
      if (f.severity == coral::vm::VerifySeverity::kWarning) ++warnings;
    }
    std::cout << (json ? RenderJson(v) + "\n" : RenderText(v));
  }
  if (!json) {
    std::cout << verdicts.size() << " program(s): " << verified
              << " verified, " << interpreted << " interpreted, "
              << rejected << " rejected/error, " << warnings
              << " warning(s)\n";
  }
  if (io_error || rejected > 0) return 2;
  return warnings > 0 ? 1 : 0;
}

// coral_lint: standalone checker for CORAL programs.
//
//   coral_lint [--strict] [--json] file.crl ...
//
// Parses each file and runs the static semantic analyzer (rule safety,
// builtin binding modes, arity consistency, export validity, dead code,
// annotation sanity, stratification, abstract-interpretation findings)
// without loading anything into a database. Diagnostics print one per
// line as
//   <file>:<line>:<col>: <severity>: <message> [CRLxxx]
// or, with --json, as one JSON object per line (see
// coral::Diagnostic::ToJson). Output order is deterministic: sorted by
// (line, col, code, pred), duplicates collapsed.
//
// Exit code contract: 0 clean, 1 warnings only, 2 errors (including
// parse failures, unreadable files and bad usage). With --strict,
// warnings are errors and exit 2.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "src/analysis/analyzer.h"
#include <coral/coral.h>
#include "src/lang/parser.h"
#include "src/rewrite/rewriter.h"
#include "src/vm/compiler.h"
#include "src/vm/verifier.h"

namespace {

/// "<file>:<line>:<col>: severity: ..." — the common compiler-tool shape,
/// so editors and CI annotate the right source line.
std::string Render(const std::string& file, const coral::Diagnostic& d) {
  std::ostringstream oss;
  oss << file;
  if (d.loc.valid()) oss << ":" << d.loc.line << ":" << d.loc.col;
  oss << ": " << coral::DiagSeverityName(d.severity) << ": ";
  if (!d.module_name.empty()) oss << "module '" << d.module_name << "': ";
  oss << d.message;
  if (d.code != nullptr && d.code[0] != '\0') oss << " [" << d.code << "]";
  return oss.str();
}

/// Bytecode-verifier findings (CRL3xx, src/vm/verifier.h) as lint rows:
/// compiles every export form of every materialized module the same way
/// the engine would and audits the result. A program the verifier
/// rejects runs interpreted (correct, just slower), so CRL301 is a
/// warning; CRL303 (always-fail unify) is a warning; CRL302 (probe
/// without a backing index) is a note — the optimizer's plan is advisory
/// at lint time. CRL304 dead-register notes are compiler-routine and not
/// surfaced here.
void AppendBytecodeFindings(
    const coral::Program& prog, coral::TermFactory* factory,
    const coral::AnalyzerOptions& opts, coral::DiagnosticList* out) {
  const auto& is_builtin = opts.is_builtin;
  using coral::PredRef;
  // Cross-module visibility within this file: exported or local
  // predicates of *any* module here are module calls, not base scans.
  std::unordered_set<PredRef, coral::PredRefHash> module_preds;
  for (const coral::ModuleDecl& m : prog.modules) {
    for (const coral::QueryFormDecl& f : m.exports) {
      module_preds.insert(
          PredRef{f.pred, static_cast<uint32_t>(f.adornment.size())});
    }
    for (const coral::Rule& r : m.rules) {
      module_preds.insert(r.head.pred_ref());
    }
  }
  for (const coral::ModuleDecl& m : prog.modules) {
    if (m.eval_mode == coral::EvalMode::kPipelined) continue;
    std::unordered_set<PredRef, coral::PredRefHash> own;
    for (const coral::Rule& r : m.rules) own.insert(r.head.pred_ref());
    for (const coral::QueryFormDecl& form : m.exports) {
      coral::RewriteOptions ropts;
      ropts.is_builtin = is_builtin;
      ropts.modes_of = opts.modes_of;
      auto rewritten = RewriteModule(m, form, factory, ropts);
      if (!rewritten.ok()) continue;  // reported by the analyzer already
      coral::vm::CompileEnv cenv;
      cenv.is_builtin = is_builtin;
      cenv.is_module_pred = [&](const PredRef& p) {
        return module_preds.count(p) > 0 && own.count(p) == 0;
      };
      coral::vm::ModuleProgram mp =
          coral::vm::CompileModule(*rewritten, m, cenv);
      if (mp.compiled == 0 && mp.verifier_rejected == 0) continue;
      coral::absint::AbsIntOptions aopts;
      aopts.is_builtin = is_builtin;
      if (rewritten->answer_pred.sym != nullptr &&
          !rewritten->answer_adornment.empty()) {
        std::vector<bool> bound;
        for (char c : rewritten->answer_adornment) {
          bound.push_back(c == 'b');
        }
        aopts.seeds[rewritten->answer_pred] = std::move(bound);
      }
      if (rewritten->uses_magic && rewritten->seed_pred.sym != nullptr) {
        aopts.assumed_facts.insert(rewritten->seed_pred);
      }
      for (const auto& [magic, done] : rewritten->done_of) {
        aopts.assumed_facts.insert(done);
      }
      coral::absint::AnalysisResult facts = coral::absint::AnalyzeRules(
          rewritten->rules, rewritten->graph, aopts);
      coral::vm::AuditOptions vopts;
      vopts.rewritten = &*rewritten;
      vopts.decl = &m;
      vopts.facts = &facts;
      vopts.index_plan_authoritative = true;
      coral::vm::ModuleAudit audit = coral::vm::AuditModule(mp, vopts);
      for (const coral::vm::ProgramVerdict& v : audit.verdicts) {
        coral::SourceLoc loc;
        if (v.rule_index < rewritten->rules.size()) {
          loc = rewritten->rules[v.rule_index].loc;
        }
        auto add = [&](const char* code, const std::string& msg,
                       coral::DiagSeverity sev) {
          coral::Diagnostic d;
          d.severity = sev;
          d.code = code;
          d.message = msg;
          d.module_name = m.name;
          d.pred = v.head;
          d.loc = loc;
          out->Add(std::move(d));
        };
        if (const coral::vm::VerifyFinding* err = v.report.FirstError();
            err != nullptr) {
          add(coral::vm::vdiag::kUnverifiable,
              "rule version compiled to unverifiable bytecode, runs "
              "interpreted: " + err->message,
              coral::DiagSeverity::kWarning);
          continue;
        }
        for (const coral::vm::VerifyFinding& f : v.report.findings) {
          std::string_view code = f.code;
          if (code == coral::vm::vdiag::kProbeNoIndex) {
            add(f.code, f.message, coral::DiagSeverity::kNote);
          } else if (code == coral::vm::vdiag::kAlwaysFailUnify) {
            add(f.code, f.message, coral::DiagSeverity::kWarning);
          }
        }
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool strict = false;
  bool json = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--strict" || arg == "-Werror") {
      strict = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: coral_lint [--strict] [--json] file.crl ...\n";
      return 0;
    } else {
      files.push_back(std::move(arg));
    }
  }
  if (files.empty()) {
    std::cerr << "usage: coral_lint [--strict] [--json] file.crl ...\n";
    return 2;
  }

  // A Database supplies the term factory and the builtin registry (with
  // the update predicates its constructor registers); nothing is loaded.
  coral::Database db;
  coral::AnalyzerOptions opts;
  opts.strict = strict;
  opts.is_builtin = db.builtins()->IsBuiltin();
  opts.modes_of = db.builtins()->ModesOf();

  size_t errors = 0;
  size_t warnings = 0;
  for (const std::string& file : files) {
    coral::DiagnosticList diags;
    std::ifstream in(file);
    std::string text;
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      text = buf.str();  // Parser keeps a view of it
    }
    if (!in) {
      coral::Diagnostic d;
      d.severity = coral::DiagSeverity::kError;
      d.message = "cannot open file";
      diags.Add(std::move(d));
    } else {
      coral::Parser parser(text, db.factory());
      auto prog = parser.ParseProgram();
      if (!prog.ok()) {
        coral::Diagnostic d;
        d.severity = coral::DiagSeverity::kError;
        d.message = std::string(prog.status().message());
        diags.Add(std::move(d));
      } else {
        diags = AnalyzeProgram(*prog, opts);
        AppendBytecodeFindings(*prog, db.factory(), opts, &diags);
      }
    }
    diags.Normalize();
    if (json) {
      std::cout << diags.ToJsonLines(file);
    } else {
      for (const coral::Diagnostic& d : diags.items()) {
        std::cout << Render(file, d) << "\n";
      }
    }
    errors += diags.error_count();
    warnings += diags.warning_count();
  }
  if (!json && errors + warnings > 0) {
    std::cout << files.size() << " file(s): " << errors << " error(s), "
              << warnings << " warning(s)" << (strict ? " [--strict]" : "")
              << "\n";
  }
  if (errors > 0 || (strict && warnings > 0)) return 2;
  return warnings > 0 ? 1 : 0;
}

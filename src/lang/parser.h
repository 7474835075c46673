// Copyright (c) 1993-style CORAL reproduction authors.
// Recursive-descent parser for the CORAL language: modules with exports
// and annotations, rules, facts (possibly non-ground), queries, and the
// annotation sub-language (@aggregate_selection, @make_index, and the
// module-level control annotations of paper §4/§5).

#ifndef CORAL_LANG_PARSER_H_
#define CORAL_LANG_PARSER_H_

#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/data/term_factory.h"
#include "src/lang/ast.h"
#include "src/lang/token.h"
#include "src/util/status.h"

namespace coral {

class Parser {
 public:
  Parser(std::string_view source, TermFactory* factory)
      : source_(source), factory_(factory) {}

  /// Parses a whole source file / command string.
  StatusOr<Program> ParseProgram();

  /// Parses a single term (for tests and the C++ API). Variables get
  /// slots by first occurrence; *var_count receives the number used.
  static StatusOr<const Arg*> ParseTerm(std::string_view text,
                                        TermFactory* factory,
                                        uint32_t* var_count);

 private:
  // --- token plumbing ---
  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Ahead(size_t n = 1) const {
    size_t i = pos_ + n;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Bump() { if (pos_ + 1 < tokens_.size()) ++pos_; }
  bool At(TokenKind k) const { return Cur().kind == k; }
  bool Eat(TokenKind k) {
    if (!At(k)) return false;
    Bump();
    return true;
  }
  Status Expect(TokenKind k);
  Status ErrorHere(const std::string& msg) const;
  SourceLoc LocHere() const { return SourceLoc{Cur().line, Cur().col}; }

  // --- clause-scoped variable numbering ---
  void BeginClause();
  const Arg* VarFor(const std::string& name);

  // --- grammar ---
  Status ParseTopLevel(Program* out);
  Status ParseModule(Program* out);
  Status ParseModuleItem(ModuleDecl* mod);
  Status ParseExport(ModuleDecl* mod);
  Status ParseAnnotation(ModuleDecl* mod, Program* top);
  Status ParseRuleOrFact(std::vector<Rule>* rules);
  Status ParseQuery(Program* out);

  StatusOr<Literal> ParseLiteral();
  StatusOr<Literal> ParsePositiveLiteral();
  StatusOr<const Arg*> ParseTermExpr();    // +,-
  StatusOr<const Arg*> ParseTermFactor();  // *,/
  /// The operator loops of the two above, from an already parsed operand.
  StatusOr<const Arg*> ContinueTermExpr(const Arg* lhs);
  StatusOr<const Arg*> ContinueTermFactor(const Arg* lhs);
  /// The comparison operator at the cursor (e.g. "=<"), or nullptr.
  const char* CompareOpHere() const;
  StatusOr<const Arg*> ParseTermPrimary();
  StatusOr<std::vector<const Arg*>> ParseArgList();

  StatusOr<AggSelDecl> ParseAggregateSelection();
  StatusOr<IndexDecl> ParseMakeIndex();

  std::string_view source_;
  TermFactory* factory_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;

  std::unordered_map<std::string, uint32_t> var_slots_;
  std::vector<std::string> var_names_;
};

}  // namespace coral

#endif  // CORAL_LANG_PARSER_H_

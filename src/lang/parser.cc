#include "src/lang/parser.h"

#include <cstdlib>

#include "src/lang/lexer.h"
#include "src/util/logging.h"

namespace coral {

Status Parser::ErrorHere(const std::string& msg) const {
  return Status::InvalidArgument(
      "parse error at line " + std::to_string(Cur().line) + ":" +
      std::to_string(Cur().col) + ": " + msg + " (found " + Cur().Describe() +
      ")");
}

Status Parser::Expect(TokenKind k) {
  if (!Eat(k)) {
    return ErrorHere(std::string("expected ") + TokenKindName(k));
  }
  return Status::OK();
}

void Parser::BeginClause() {
  var_slots_.clear();
  var_names_.clear();
}

const Arg* Parser::VarFor(const std::string& name) {
  // Every '_' is a distinct anonymous variable.
  if (name == "_") {
    uint32_t slot = static_cast<uint32_t>(var_names_.size());
    var_names_.push_back("_" + std::to_string(slot));
    return factory_->MakeVariable(slot, var_names_.back());
  }
  auto it = var_slots_.find(name);
  uint32_t slot;
  if (it == var_slots_.end()) {
    slot = static_cast<uint32_t>(var_names_.size());
    var_slots_.emplace(name, slot);
    var_names_.push_back(name);
  } else {
    slot = it->second;
  }
  return factory_->MakeVariable(slot, name);
}

StatusOr<Program> Parser::ParseProgram() {
  Lexer lexer(source_);
  CORAL_ASSIGN_OR_RETURN(tokens_, lexer.Tokenize());
  pos_ = 0;
  Program out;
  while (!At(TokenKind::kEof)) {
    CORAL_RETURN_IF_ERROR(ParseTopLevel(&out));
  }
  return out;
}

Status Parser::ParseTopLevel(Program* out) {
  if (At(TokenKind::kIdent) && Cur().text == "module" &&
      Ahead().kind == TokenKind::kIdent) {
    return ParseModule(out);
  }
  if (At(TokenKind::kQueryDash)) {
    return ParseQuery(out);
  }
  if (At(TokenKind::kAt)) {
    return ParseAnnotation(nullptr, out);
  }
  // Top-level fact (or rule, which we reject: rules belong in modules).
  std::vector<Rule> rules;
  CORAL_RETURN_IF_ERROR(ParseRuleOrFact(&rules));
  for (Rule& r : rules) {
    if (!r.is_fact()) {
      return Status::InvalidArgument(
          "rules must appear inside a module: " + r.ToString());
    }
    out->top_facts.push_back(std::move(r));
  }
  return Status::OK();
}

Status Parser::ParseModule(Program* out) {
  ModuleDecl mod;
  mod.loc = LocHere();
  Bump();  // 'module'
  mod.name = Cur().text;
  CORAL_RETURN_IF_ERROR(Expect(TokenKind::kIdent));
  CORAL_RETURN_IF_ERROR(Expect(TokenKind::kDot));
  while (!(At(TokenKind::kIdent) && Cur().text == "end_module")) {
    if (At(TokenKind::kEof)) return ErrorHere("missing end_module");
    CORAL_RETURN_IF_ERROR(ParseModuleItem(&mod));
  }
  Bump();  // end_module
  CORAL_RETURN_IF_ERROR(Expect(TokenKind::kDot));
  out->modules.push_back(std::move(mod));
  return Status::OK();
}

Status Parser::ParseModuleItem(ModuleDecl* mod) {
  if (At(TokenKind::kIdent) && Cur().text == "export") {
    return ParseExport(mod);
  }
  if (At(TokenKind::kAt)) {
    return ParseAnnotation(mod, nullptr);
  }
  return ParseRuleOrFact(&mod->rules);
}

Status Parser::ParseExport(ModuleDecl* mod) {
  Bump();  // 'export'
  // One or more predicates, each with one or more adornments:
  //   export s_p(bfff, ffff), helper(bf).
  while (true) {
    if (!At(TokenKind::kIdent)) return ErrorHere("expected predicate name");
    SourceLoc loc = LocHere();
    Symbol pred = factory_->symbols().Intern(Cur().text);
    Bump();
    CORAL_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    if (Eat(TokenKind::kRParen)) {  // zero-arity export: alarm()
      mod->exports.push_back(QueryFormDecl{pred, "", loc});
      if (!Eat(TokenKind::kComma)) break;
      continue;
    }
    while (true) {
      if (!At(TokenKind::kIdent) && !At(TokenKind::kVariable)) {
        return ErrorHere("expected adornment string of 'b'/'f'");
      }
      std::string ad = Cur().text;
      for (char c : ad) {
        if (c != 'b' && c != 'f') {
          return ErrorHere("adornment must contain only 'b' and 'f'");
        }
      }
      Bump();
      mod->exports.push_back(QueryFormDecl{pred, ad, loc});
      if (!Eat(TokenKind::kComma)) break;
    }
    CORAL_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    if (!Eat(TokenKind::kComma)) break;
  }
  return Expect(TokenKind::kDot);
}

Status Parser::ParseAnnotation(ModuleDecl* mod, Program* top) {
  SourceLoc loc = LocHere();
  Bump();  // '@'
  if (!At(TokenKind::kIdent)) return ErrorHere("expected annotation name");
  std::string name = Cur().text;
  Bump();
  if (mod != nullptr) mod->annotations.push_back(AnnotationUse{name, loc});

  auto module_only = [&]() -> Status {
    if (mod == nullptr) {
      return Status::InvalidArgument("annotation @" + name +
                                     " is only valid inside a module");
    }
    return Status::OK();
  };

  if (name == "aggregate_selection") {
    BeginClause();
    CORAL_ASSIGN_OR_RETURN(AggSelDecl decl, ParseAggregateSelection());
    decl.loc = loc;
    if (mod != nullptr) {
      mod->agg_selections.push_back(std::move(decl));
    } else {
      top->top_agg_selections.push_back(std::move(decl));
    }
    return Expect(TokenKind::kDot);
  }
  if (name == "make_index") {
    BeginClause();
    CORAL_ASSIGN_OR_RETURN(IndexDecl decl, ParseMakeIndex());
    decl.loc = loc;
    if (mod != nullptr) {
      mod->indexes.push_back(std::move(decl));
    } else {
      top->top_indexes.push_back(std::move(decl));
    }
    return Expect(TokenKind::kDot);
  }
  if (name == "multiset") {
    CORAL_RETURN_IF_ERROR(module_only());
    if (!At(TokenKind::kIdent)) return ErrorHere("expected predicate name");
    mod->multiset_preds.push_back(factory_->symbols().Intern(Cur().text));
    Bump();
    return Expect(TokenKind::kDot);
  }

  // Flag-style module annotations.
  CORAL_RETURN_IF_ERROR(module_only());
  if (name == "parallel") {
    // @parallel. or @parallel(N). — parallel bottom-up fixpoint; without
    // an explicit count the Database-wide setting applies. Range checking
    // is the analyzer's job (CRL133) so the whole module gets diagnosed.
    mod->parallel = true;
    if (Eat(TokenKind::kLParen)) {
      bool neg = Eat(TokenKind::kMinus);
      if (!At(TokenKind::kInteger)) {
        return ErrorHere("expected thread count in @parallel(N)");
      }
      // Out-of-int64 or negative counts become 0 — an out-of-range value
      // the analyzer rejects with CRL133 (0 never collides with the -1
      // "no explicit count" default).
      char* end = nullptr;
      long long n = std::strtoll(Cur().text.c_str(), &end, 10);
      if (neg || end == nullptr || *end != '\0' || n < 0) n = 0;
      mod->parallel_threads = static_cast<int64_t>(n);
      Bump();
      CORAL_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    }
    return Expect(TokenKind::kDot);
  }
  if (name == "pipelining") {
    mod->eval_mode = EvalMode::kPipelined;
  } else if (name == "materialized" || name == "materialization") {
    mod->eval_mode = EvalMode::kMaterialized;
  } else if (name == "save_module") {
    mod->save_module = true;
  } else if (name == "lazy_eval" || name == "lazy") {
    // Lazy answer delivery is the default (paper §5.4.3).
  } else if (name == "eager") {
    mod->eager = true;
  } else if (name == "ordered_search") {
    mod->ordered_search = true;
  } else if (name == "naive") {
    mod->fixpoint = FixpointKind::kNaive;
  } else if (name == "bsn" || name == "basic_seminaive") {
    mod->fixpoint = FixpointKind::kBasicSemiNaive;
  } else if (name == "psn" || name == "predicate_seminaive") {
    mod->fixpoint = FixpointKind::kPredicateSemiNaive;
  } else if (name == "no_rewriting") {
    mod->rewrite = RewriteKind::kNone;
  } else if (name == "magic") {
    mod->rewrite = RewriteKind::kMagic;
  } else if (name == "supplementary_magic" || name == "sup_magic") {
    mod->rewrite = RewriteKind::kSupplementaryMagic;
  } else if (name == "factoring" || name == "context_factoring") {
    mod->rewrite = RewriteKind::kFactoring;
  } else if (name == "no_intelligent_backtracking") {
    mod->intelligent_backtracking = false;
  } else if (name == "explain") {
    mod->explain = true;
  } else if (name == "profile") {
    mod->profile = true;
  } else if (name == "reorder_joins") {
    mod->reorder_joins = true;
  } else if (name == "no_reorder_joins") {
    mod->no_reorder_joins = true;
  } else if (name == "no_vm") {
    mod->no_vm = true;
  } else {
    return Status::InvalidArgument("unknown annotation @" + name);
  }
  return Expect(TokenKind::kDot);
}

StatusOr<AggSelDecl> Parser::ParseAggregateSelection() {
  // p(X,Y,P,C) (X,Y) min(C)
  AggSelDecl decl;
  if (!At(TokenKind::kIdent)) return ErrorHere("expected predicate name");
  decl.pred = factory_->symbols().Intern(Cur().text);
  Bump();
  CORAL_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
  CORAL_ASSIGN_OR_RETURN(decl.pattern, ParseArgList());
  CORAL_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
  CORAL_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
  CORAL_ASSIGN_OR_RETURN(decl.group_args, ParseArgList());
  CORAL_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
  if (!At(TokenKind::kIdent)) return ErrorHere("expected aggregate name");
  AggFn fn = AggFnFromName(Cur().text);
  switch (fn) {
    case AggFn::kMin:
      decl.kind = AggregateSelection::Kind::kMin;
      break;
    case AggFn::kMax:
      decl.kind = AggregateSelection::Kind::kMax;
      break;
    case AggFn::kAny:
      decl.kind = AggregateSelection::Kind::kAny;
      break;
    default:
      return ErrorHere("aggregate selection supports min, max, any");
  }
  Bump();
  CORAL_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
  CORAL_ASSIGN_OR_RETURN(const Arg* agg_arg, ParseTermExpr());
  decl.agg_arg = agg_arg;
  CORAL_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
  decl.var_count = static_cast<uint32_t>(var_names_.size());
  return decl;
}

StatusOr<IndexDecl> Parser::ParseMakeIndex() {
  // emp(Name, addr(Street, City)) (Name, City)
  IndexDecl decl;
  if (!At(TokenKind::kIdent)) return ErrorHere("expected predicate name");
  decl.pred = factory_->symbols().Intern(Cur().text);
  Bump();
  CORAL_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
  CORAL_ASSIGN_OR_RETURN(decl.pattern, ParseArgList());
  CORAL_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
  CORAL_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
  CORAL_ASSIGN_OR_RETURN(std::vector<const Arg*> keys, ParseArgList());
  CORAL_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
  decl.var_count = static_cast<uint32_t>(var_names_.size());

  for (const Arg* k : keys) {
    if (k->kind() != ArgKind::kVariable) {
      return ErrorHere("index keys must be variables from the pattern");
    }
    uint32_t slot = ArgCast<Variable>(k)->slot();
    decl.key_slots.push_back(slot);
  }
  // Argument-form: pattern is a list of distinct plain variables.
  decl.argument_form = true;
  for (const Arg* p : decl.pattern) {
    if (p->kind() != ArgKind::kVariable) {
      decl.argument_form = false;
      break;
    }
  }
  if (decl.argument_form) {
    for (uint32_t slot : decl.key_slots) {
      bool found = false;
      for (uint32_t i = 0; i < decl.pattern.size(); ++i) {
        if (ArgCast<Variable>(decl.pattern[i])->slot() == slot) {
          decl.cols.push_back(i);
          found = true;
          break;
        }
      }
      if (!found) {
        return ErrorHere("index key variable not in pattern");
      }
    }
  }
  return decl;
}

Status Parser::ParseRuleOrFact(std::vector<Rule>* rules) {
  BeginClause();
  Rule rule;
  rule.loc = LocHere();
  CORAL_ASSIGN_OR_RETURN(rule.head, ParsePositiveLiteral());
  if (rule.head.negated) {
    return ErrorHere("rule head cannot be negated");
  }
  if (Eat(TokenKind::kColonDash)) {
    while (true) {
      CORAL_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
      rule.body.push_back(std::move(lit));
      if (!Eat(TokenKind::kComma)) break;
    }
  }
  CORAL_RETURN_IF_ERROR(Expect(TokenKind::kDot));
  rule.var_count = static_cast<uint32_t>(var_names_.size());
  rule.var_names = var_names_;
  rules->push_back(std::move(rule));
  return Status::OK();
}

Status Parser::ParseQuery(Program* out) {
  Query q;
  q.loc = LocHere();
  Bump();  // '?-'
  BeginClause();
  while (true) {
    CORAL_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
    q.body.push_back(std::move(lit));
    if (!Eat(TokenKind::kComma)) break;
  }
  CORAL_RETURN_IF_ERROR(Expect(TokenKind::kDot));
  q.var_count = static_cast<uint32_t>(var_names_.size());
  q.var_names = var_names_;
  out->queries.push_back(std::move(q));
  return Status::OK();
}

StatusOr<Literal> Parser::ParseLiteral() {
  if (At(TokenKind::kIdent) && Cur().text == "not") {
    SourceLoc loc = LocHere();
    Bump();
    CORAL_ASSIGN_OR_RETURN(Literal lit, ParsePositiveLiteral());
    lit.negated = true;
    lit.loc = loc;
    return lit;
  }
  return ParsePositiveLiteral();
}

StatusOr<Literal> Parser::ParsePositiveLiteral() {
  // Parse a term; if followed by a comparison operator, build an operator
  // literal, else the term itself must be a predicate application.
  SourceLoc loc = LocHere();
  const Arg* lhs = nullptr;
  if ((At(TokenKind::kIdent) || At(TokenKind::kQuotedAtom)) &&
      Ahead().kind == TokenKind::kLParen &&
      Ahead(2).kind != TokenKind::kRParen) {
    // name(args): the literal takes the args directly, so a fact or a
    // query allocates no top-level functor term.
    std::string name = Cur().text;
    Bump();
    Bump();  // '('
    CORAL_ASSIGN_OR_RETURN(std::vector<const Arg*> args, ParseArgList());
    CORAL_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    const bool op_follows = CompareOpHere() != nullptr ||
                            At(TokenKind::kPlus) || At(TokenKind::kMinus) ||
                            At(TokenKind::kStar) || At(TokenKind::kSlash);
    if (!op_follows) {
      Literal lit;
      lit.pred = factory_->symbols().Intern(name);
      lit.args = std::move(args);
      lit.loc = loc;
      return lit;
    }
    // An operator follows (f(X) = Y, f(X) + 1 > Y): the application is
    // the first operand. Continue the expression from the parsed args;
    // re-parsing would renumber every '_'.
    CORAL_ASSIGN_OR_RETURN(
        const Arg* factor,
        ContinueTermFactor(factory_->MakeFunctor(name, args)));
    CORAL_ASSIGN_OR_RETURN(lhs, ContinueTermExpr(factor));
  } else {
    CORAL_ASSIGN_OR_RETURN(lhs, ParseTermExpr());
  }

  if (const char* op = CompareOpHere()) {
    Bump();
    CORAL_ASSIGN_OR_RETURN(const Arg* rhs, ParseTermExpr());
    Literal lit;
    lit.pred = factory_->symbols().Intern(op);
    lit.args = {lhs, rhs};
    lit.loc = loc;
    return lit;
  }

  if (lhs->kind() != ArgKind::kAtomOrFunctor) {
    return ErrorHere("expected a predicate application");
  }
  const auto* f = ArgCast<FunctorArg>(lhs);
  Literal lit;
  lit.pred = f->functor();
  lit.args.assign(f->args().begin(), f->args().end());
  lit.loc = loc;
  return lit;
}

const char* Parser::CompareOpHere() const {
  switch (Cur().kind) {
    case TokenKind::kEquals: return "=";
    case TokenKind::kNotEquals: return "\\=";
    case TokenKind::kLess: return "<";
    case TokenKind::kGreater: return ">";
    case TokenKind::kLessEq: return "=<";
    case TokenKind::kGreaterEq: return ">=";
    default: return nullptr;
  }
}

StatusOr<const Arg*> Parser::ParseTermExpr() {
  CORAL_ASSIGN_OR_RETURN(const Arg* lhs, ParseTermFactor());
  return ContinueTermExpr(lhs);
}

StatusOr<const Arg*> Parser::ContinueTermExpr(const Arg* lhs) {
  while (At(TokenKind::kPlus) || At(TokenKind::kMinus)) {
    const char* op = At(TokenKind::kPlus) ? "+" : "-";
    Bump();
    CORAL_ASSIGN_OR_RETURN(const Arg* rhs, ParseTermFactor());
    const Arg* args[] = {lhs, rhs};
    lhs = factory_->MakeFunctor(op, args);
  }
  return lhs;
}

StatusOr<const Arg*> Parser::ParseTermFactor() {
  CORAL_ASSIGN_OR_RETURN(const Arg* lhs, ParseTermPrimary());
  return ContinueTermFactor(lhs);
}

StatusOr<const Arg*> Parser::ContinueTermFactor(const Arg* lhs) {
  while (At(TokenKind::kStar) || At(TokenKind::kSlash)) {
    const char* op = At(TokenKind::kStar) ? "*" : "/";
    Bump();
    CORAL_ASSIGN_OR_RETURN(const Arg* rhs, ParseTermPrimary());
    const Arg* args[] = {lhs, rhs};
    lhs = factory_->MakeFunctor(op, args);
  }
  return lhs;
}

StatusOr<std::vector<const Arg*>> Parser::ParseArgList() {
  std::vector<const Arg*> args;
  while (true) {
    CORAL_ASSIGN_OR_RETURN(const Arg* a, ParseTermExpr());
    args.push_back(a);
    if (!Eat(TokenKind::kComma)) break;
  }
  return args;
}

StatusOr<const Arg*> Parser::ParseTermPrimary() {
  switch (Cur().kind) {
    case TokenKind::kInteger: {
      std::string text = Cur().text;
      Bump();
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(text.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        return static_cast<const Arg*>(factory_->MakeInt(v));
      }
      // Out of int64 range: arbitrary-precision integer (paper §3.1).
      CORAL_ASSIGN_OR_RETURN(BigInt big, BigInt::FromString(text));
      return static_cast<const Arg*>(factory_->MakeBigInt(big));
    }
    case TokenKind::kDouble: {
      double v = std::strtod(Cur().text.c_str(), nullptr);
      Bump();
      return static_cast<const Arg*>(factory_->MakeDouble(v));
    }
    case TokenKind::kMinus: {
      Bump();
      CORAL_ASSIGN_OR_RETURN(const Arg* inner, ParseTermPrimary());
      if (inner->kind() == ArgKind::kInt) {
        return static_cast<const Arg*>(
            factory_->MakeInt(-ArgCast<IntArg>(inner)->value()));
      }
      if (inner->kind() == ArgKind::kDouble) {
        return static_cast<const Arg*>(
            factory_->MakeDouble(-ArgCast<DoubleArg>(inner)->value()));
      }
      // Symbolic negation: -(X).
      const Arg* args[] = {inner};
      return static_cast<const Arg*>(factory_->MakeFunctor("-", args));
    }
    case TokenKind::kString: {
      const Arg* s = factory_->MakeString(Cur().text);
      Bump();
      return s;
    }
    case TokenKind::kVariable: {
      const Arg* v = VarFor(Cur().text);
      Bump();
      return v;
    }
    case TokenKind::kIdent:
    case TokenKind::kQuotedAtom: {
      std::string name = Cur().text;
      Bump();
      if (Eat(TokenKind::kLParen)) {
        if (Eat(TokenKind::kRParen)) {  // zero-arity: p()
          return static_cast<const Arg*>(factory_->MakeAtom(name));
        }
        CORAL_ASSIGN_OR_RETURN(std::vector<const Arg*> args, ParseArgList());
        CORAL_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        return static_cast<const Arg*>(factory_->MakeFunctor(name, args));
      }
      return static_cast<const Arg*>(factory_->MakeAtom(name));
    }
    case TokenKind::kLBracket: {
      Bump();
      if (Eat(TokenKind::kRBracket)) {
        return static_cast<const Arg*>(factory_->Nil());
      }
      CORAL_ASSIGN_OR_RETURN(std::vector<const Arg*> elems, ParseArgList());
      const Arg* tail = nullptr;
      if (Eat(TokenKind::kBar)) {
        CORAL_ASSIGN_OR_RETURN(tail, ParseTermExpr());
      }
      CORAL_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
      return factory_->MakeList(elems, tail);
    }
    case TokenKind::kLParen: {
      Bump();
      CORAL_ASSIGN_OR_RETURN(const Arg* t, ParseTermExpr());
      CORAL_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return t;
    }
    case TokenKind::kLess: {
      // Grouping marker <X> (set-grouping / aggregation, paper §5.5.2).
      Bump();
      if (!At(TokenKind::kVariable)) {
        return ErrorHere("expected variable inside <...> grouping");
      }
      const Arg* v = VarFor(Cur().text);
      Bump();
      CORAL_RETURN_IF_ERROR(Expect(TokenKind::kGreater));
      const Arg* args[] = {v};
      return static_cast<const Arg*>(
          factory_->MakeFunctor(kGroupMarker, args));
    }
    default:
      return ErrorHere("expected a term");
  }
}

StatusOr<const Arg*> Parser::ParseTerm(std::string_view text,
                                       TermFactory* factory,
                                       uint32_t* var_count) {
  Parser p(text, factory);
  Lexer lexer(text);
  CORAL_ASSIGN_OR_RETURN(p.tokens_, lexer.Tokenize());
  p.pos_ = 0;
  p.BeginClause();
  CORAL_ASSIGN_OR_RETURN(const Arg* term, p.ParseTermExpr());
  if (!p.At(TokenKind::kEof)) {
    return p.ErrorHere("trailing input after term");
  }
  if (var_count != nullptr) {
    *var_count = static_cast<uint32_t>(p.var_names_.size());
  }
  return term;
}

}  // namespace coral

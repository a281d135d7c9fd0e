//===- frontend/Parser.cpp - The .gilr module parser ------------------------===//
///
/// \file
/// Recursive-descent parser for the textual RMIR format, lowering directly
/// into Module's tables (no separate AST). Items are parsed in two passes:
/// pass A splits the input into items, registering type parameters and
/// forward-declaring struct names so recursive types resolve regardless of
/// declaration order; pass B parses enums, then struct fields, then function
/// bodies (interning every local's type), then the remaining items in source
/// order; finally every predicate is mode-checked (§7.2). Embedded Gilsonite
/// S-expressions and Pearlite terms are extracted as raw substrings
/// (Lexer::rawSexpr / rawUntilSemi) and handed to the dedicated parsers;
/// their position-tracked failures are re-anchored at the region's offset
/// so every diagnostic points into the .gilr file.
///
//===----------------------------------------------------------------------===//

#include "creusot/PearliteParser.h"
#include "frontend/Frontend.h"
#include "frontend/Lexer.h"
#include "gilsonite/ModeCheck.h"
#include "gilsonite/Parser.h"
#include "support/SourceMgr.h"

#include <map>
#include <set>

using namespace gilr;
using namespace gilr::frontend;
using analysis::code::FrontendError;
using analysis::code::NameError;
using analysis::code::SyntaxError;

namespace {

/// One top-level item located by pass A.
struct ItemRef {
  std::string Kw;
  std::string Sub;  ///< lemma only: "freeze" / "extract".
  std::string Name; ///< Empty for automation / verify.
  std::size_t At = 0;
};

class ModuleParser {
public:
  ModuleParser(const std::string &File, const std::string &Text, Module &M,
               std::vector<analysis::Diagnostic> &Diags)
      : File(File), Text(Text), SM(File, Text), M(M), Diags(Diags) {}

  bool run();

private:
  const std::string &File;
  const std::string &Text;
  support::SourceMgr SM;
  Module &M;
  std::vector<analysis::Diagnostic> &Diags;

  std::vector<ItemRef> Items;
  std::set<std::string> StructNames;
  std::vector<std::pair<std::string, std::size_t>> VerifyPending;
  std::string Entity; ///< Current item, for diagnostics.

  /// Per-function parsing context: the function under construction plus the
  /// local-name index (.gilr refers to locals by unique name).
  struct FnCtx {
    rmir::Function &F;
    std::map<std::string, rmir::LocalId> LocalIds;
  };

  // Diagnostics ----------------------------------------------------------

  bool err(std::size_t Off, const char *Code, const std::string &Msg) {
    analysis::Diagnostic D;
    D.Code = Code;
    D.Sev = analysis::Severity::Error;
    D.Entity = Entity;
    D.Message = Msg;
    D.File = File;
    support::LineCol LC = SM.lineCol(Off);
    D.Line = LC.Line;
    D.Col = LC.Col;
    Diags.push_back(std::move(D));
    return false;
  }

  // Token helpers --------------------------------------------------------

  static bool peekPunct(Lexer &L, const char *P) {
    const Token &T = L.peek();
    return T.Kind == Tok::Punct && T.Text == P;
  }
  static bool peekKw(Lexer &L, const char *K) {
    const Token &T = L.peek();
    return T.Kind == Tok::Ident && !T.Quoted && T.Text == K;
  }

  bool expectPunct(Lexer &L, const char *P) {
    Token T = L.next();
    if (T.Kind == Tok::Punct && T.Text == P)
      return true;
    if (T.Kind == Tok::Error)
      return err(T.Begin, SyntaxError, T.Text);
    return err(T.Begin, SyntaxError, std::string("expected '") + P + "'");
  }

  bool expectKw(Lexer &L, const char *K) {
    Token T = L.next();
    if (T.Kind == Tok::Ident && !T.Quoted && T.Text == K)
      return true;
    if (T.Kind == Tok::Error)
      return err(T.Begin, SyntaxError, T.Text);
    return err(T.Begin, SyntaxError, std::string("expected '") + K + "'");
  }

  bool parseName(Lexer &L, std::string &Out) {
    Token T = L.next();
    if (T.Kind == Tok::Ident || T.Kind == Tok::Lifetime) {
      Out = T.Text;
      return true;
    }
    if (T.Kind == Tok::Error)
      return err(T.Begin, SyntaxError, T.Text);
    return err(T.Begin, SyntaxError, "expected a name");
  }

  bool parseUInt(Lexer &L, uint64_t &Out) {
    Token T = L.next();
    if (T.Kind != Tok::Int || T.IntVal < 0)
      return err(T.Begin, SyntaxError, "expected a non-negative integer");
    Out = static_cast<uint64_t>(T.IntVal);
    return true;
  }

  bool parseStr(Lexer &L, std::string &Out) {
    Token T = L.next();
    if (T.Kind != Tok::Str)
      return err(T.Begin, SyntaxError, "expected a string literal");
    Out = T.Text;
    return true;
  }

  bool parseBool(Lexer &L, bool &Out) {
    Token T = L.next();
    if (T.Kind == Tok::Ident && !T.Quoted &&
        (T.Text == "true" || T.Text == "false")) {
      Out = T.Text == "true";
      return true;
    }
    return err(T.Begin, SyntaxError, "expected 'true' or 'false'");
  }

  bool parseSort(Lexer &L, Sort &Out) {
    Token T = L.next();
    if (T.Kind == Tok::Ident && gilsonite::parseSortName(T.Text, Out))
      return true;
    return err(T.Begin, SyntaxError,
               "expected a sort (Unit/Bool/Int/Real/Loc/Lft/Seq/Opt/Tuple/"
               "Any)");
  }

  bool parseBlockRef(Lexer &L, rmir::BlockId &Out) {
    Token T = L.next();
    bool Good = T.Kind == Tok::Ident && !T.Quoted && T.Text.size() > 2 &&
                T.Text.compare(0, 2, "bb") == 0;
    uint64_t N = 0;
    if (Good)
      for (std::size_t I = 2; I < T.Text.size(); ++I) {
        if (T.Text[I] < '0' || T.Text[I] > '9') {
          Good = false;
          break;
        }
        N = N * 10 + static_cast<uint64_t>(T.Text[I] - '0');
      }
    if (!Good)
      return err(T.Begin, SyntaxError, "expected a block label 'bbN'");
    Out = static_cast<rmir::BlockId>(N);
    return true;
  }

  // Embedded-language regions -------------------------------------------

  bool parseAssertionRegion(Lexer &L, gilsonite::AssertionP &Out) {
    std::string Raw;
    std::size_t At = 0;
    if (!L.rawSexpr(Raw, At))
      return err(L.pos(), SyntaxError, "expected a Gilsonite assertion");
    gilsonite::ParseDiag PD;
    Outcome<gilsonite::AssertionP> R =
        gilsonite::parseAssertion(Raw, M.Prog.Types, &PD);
    if (!R.ok())
      return err(At + PD.Offset, SyntaxError, R.error());
    Out = R.value();
    return true;
  }

  bool parseExprRegion(Lexer &L, Expr &Out) {
    std::string Raw;
    std::size_t At = 0;
    if (!L.rawSexpr(Raw, At))
      return err(L.pos(), SyntaxError, "expected an expression");
    gilsonite::ParseDiag PD;
    Outcome<Expr> R = gilsonite::parseExpr(Raw, &PD);
    if (!R.ok())
      return err(At + PD.Offset, SyntaxError, R.error());
    Out = R.value();
    return true;
  }

  bool parsePearliteRegion(Lexer &L, creusot::PTermP &Out) {
    std::string Raw;
    std::size_t At = 0;
    if (!L.rawUntilSemi(Raw, At))
      return err(L.pos(), SyntaxError,
                 "expected a Pearlite term terminated by ';'");
    Outcome<creusot::PTermP> R = creusot::parsePearliteTerm(Raw);
    if (!R.ok())
      return err(At, SyntaxError, R.error());
    Out = R.value();
    return true;
  }

  // Types ----------------------------------------------------------------

  rmir::TypeRef typeFromString(std::string S, std::size_t Off) {
    while (!S.empty() && S.front() == ' ')
      S.erase(S.begin());
    while (!S.empty() && S.back() == ' ')
      S.pop_back();
    rmir::TyCtx &T = M.Prog.Types;
    if (S == "bool")
      return T.boolTy();
    if (S == "()")
      return T.unitTy();
    for (int K = 0; K <= static_cast<int>(rmir::IntKind::USize); ++K)
      if (S == rmir::intKindName(static_cast<rmir::IntKind>(K)))
        return T.intTy(static_cast<rmir::IntKind>(K));
    if (S.compare(0, 5, "*mut ") == 0) {
      rmir::TypeRef P = typeFromString(S.substr(5), Off);
      return P ? T.rawPtr(P) : nullptr;
    }
    if (S.compare(0, 5, "&mut ") == 0) {
      rmir::TypeRef P = typeFromString(S.substr(5), Off);
      return P ? T.mutRef(P) : nullptr;
    }
    if (!S.empty() && S.front() == '[' && S.back() == ']') {
      std::string Body = S.substr(1, S.size() - 2);
      std::size_t Semi = Body.rfind(';');
      if (Semi == std::string::npos) {
        err(Off, SyntaxError, "malformed array type '" + S + "'");
        return nullptr;
      }
      uint64_t Len = 0;
      bool AnyDigit = false;
      for (std::size_t I = Semi + 1; I < Body.size(); ++I) {
        char C = Body[I];
        if (C == ' ')
          continue;
        if (C < '0' || C > '9') {
          err(Off, SyntaxError, "malformed array length in '" + S + "'");
          return nullptr;
        }
        Len = Len * 10 + static_cast<uint64_t>(C - '0');
        AnyDigit = true;
      }
      if (!AnyDigit) {
        err(Off, SyntaxError, "malformed array length in '" + S + "'");
        return nullptr;
      }
      rmir::TypeRef E = typeFromString(Body.substr(0, Semi), Off);
      return E ? T.array(E, Len) : nullptr;
    }
    if (S.size() > 8 && S.compare(0, 7, "Option<") == 0 && S.back() == '>') {
      rmir::TypeRef P = typeFromString(S.substr(7, S.size() - 8), Off);
      return P ? T.optionOf(P) : nullptr;
    }
    if (rmir::TypeRef N = T.lookup(S))
      return N;
    if (rmir::TypeRef N = T.byName(S)) // Derived types already interned.
      return N;
    err(Off, NameError, "unknown type '" + S + "'");
    return nullptr;
  }

  rmir::TypeRef parseType(Lexer &L) {
    Token T = L.next();
    if (T.Kind == Tok::Punct && T.Text == "*") {
      if (!expectKw(L, "mut"))
        return nullptr;
      rmir::TypeRef P = parseType(L);
      return P ? M.Prog.Types.rawPtr(P) : nullptr;
    }
    if (T.Kind == Tok::Punct && T.Text == "&") {
      if (!expectKw(L, "mut"))
        return nullptr;
      rmir::TypeRef P = parseType(L);
      return P ? M.Prog.Types.mutRef(P) : nullptr;
    }
    if (T.Kind == Tok::Punct && T.Text == "(") {
      if (!expectPunct(L, ")"))
        return nullptr;
      return M.Prog.Types.unitTy();
    }
    if (T.Kind == Tok::Punct && T.Text == "[") {
      rmir::TypeRef E = parseType(L);
      if (!E || !expectPunct(L, ";"))
        return nullptr;
      uint64_t Len = 0;
      if (!parseUInt(L, Len) || !expectPunct(L, "]"))
        return nullptr;
      return M.Prog.Types.array(E, Len);
    }
    if (T.Kind == Tok::Ident)
      return typeFromString(T.Text, T.Begin);
    err(T.Begin, SyntaxError, "expected a type");
    return nullptr;
  }

  // Places, operands, rvalues -------------------------------------------

  bool parsePlace(Lexer &L, FnCtx &C, rmir::Place &Out) {
    Token T = L.next();
    if (T.Kind != Tok::Ident)
      return err(T.Begin, SyntaxError, "expected a local name");
    auto It = C.LocalIds.find(T.Text);
    if (It == C.LocalIds.end())
      return err(T.Begin, NameError, "unknown local '" + T.Text + "'");
    Out = rmir::Place(It->second);
    while (peekPunct(L, ".")) {
      L.next();
      const Token &S = L.peek();
      if (S.Kind == Tok::Int && S.IntVal >= 0) {
        Out.Elems.push_back(
            rmir::PlaceElem::field(static_cast<unsigned>(S.IntVal)));
        L.next();
      } else if (S.Kind == Tok::Punct && S.Text == "*") {
        Out.Elems.push_back(rmir::PlaceElem::deref());
        L.next();
      } else if (S.Kind == Tok::Punct && S.Text == "@") {
        L.next();
        uint64_t V = 0;
        if (!parseUInt(L, V))
          return false;
        Out.Elems.push_back(
            rmir::PlaceElem::downcast(static_cast<unsigned>(V)));
      } else {
        return err(S.Begin, SyntaxError,
                   "expected a field index, '*' or '@N' after '.'");
      }
    }
    return true;
  }

  bool parseOperand(Lexer &L, FnCtx &C, rmir::Operand &Out) {
    if (peekKw(L, "copy") || peekKw(L, "move")) {
      bool IsCopy = L.next().Text == "copy";
      rmir::Place P;
      if (!parsePlace(L, C, P))
        return false;
      Out = IsCopy ? rmir::Operand::copy(std::move(P))
                   : rmir::Operand::move(std::move(P));
      return true;
    }
    if (peekKw(L, "const")) {
      L.next();
      Expr V;
      if (!parseExprRegion(L, V))
        return false;
      if (!expectPunct(L, ":"))
        return false;
      rmir::TypeRef Ty = parseType(L);
      if (!Ty)
        return false;
      Out = rmir::Operand::constant(V, Ty);
      return true;
    }
    return err(L.pos(), SyntaxError,
               "expected an operand (copy/move/const)");
  }

  /// Parses "( op, op, ... )" (possibly empty).
  bool parseOperandList(Lexer &L, FnCtx &C, std::vector<rmir::Operand> &Out) {
    if (!expectPunct(L, "("))
      return false;
    if (peekPunct(L, ")")) {
      L.next();
      return true;
    }
    while (true) {
      rmir::Operand O;
      if (!parseOperand(L, C, O))
        return false;
      Out.push_back(std::move(O));
      if (peekPunct(L, ",")) {
        L.next();
        continue;
      }
      break;
    }
    return expectPunct(L, ")");
  }

  bool parseRvalue(Lexer &L, FnCtx &C, rmir::Rvalue &Out) {
    static const std::map<std::string, rmir::BinOp> BinOps = {
        {"add", rmir::BinOp::Add}, {"sub", rmir::BinOp::Sub},
        {"mul", rmir::BinOp::Mul}, {"eq", rmir::BinOp::Eq},
        {"ne", rmir::BinOp::Ne},   {"lt", rmir::BinOp::Lt},
        {"le", rmir::BinOp::Le},   {"gt", rmir::BinOp::Gt},
        {"ge", rmir::BinOp::Ge}};
    if (peekPunct(L, "&")) {
      L.next();
      Token K = L.next();
      bool Raw = K.Kind == Tok::Ident && K.Text == "raw";
      if (!Raw && !(K.Kind == Tok::Ident && K.Text == "mut"))
        return err(K.Begin, SyntaxError, "expected 'mut' or 'raw' after '&'");
      rmir::Place P;
      if (!parsePlace(L, C, P))
        return false;
      Out = Raw ? rmir::Rvalue::addrOf(std::move(P))
                : rmir::Rvalue::refOf(std::move(P));
      return true;
    }
    const Token &T = L.peek();
    if (T.Kind == Tok::Ident && !T.Quoted) {
      auto B = BinOps.find(T.Text);
      if (B != BinOps.end()) {
        L.next();
        std::vector<rmir::Operand> Ops;
        if (!parseOperandList(L, C, Ops))
          return false;
        if (Ops.size() != 2)
          return err(T.Begin, SyntaxError,
                     "'" + B->first + "' takes exactly two operands");
        Out = rmir::Rvalue::binary(B->second, std::move(Ops[0]),
                                   std::move(Ops[1]));
        return true;
      }
      if (T.Text == "not" || T.Text == "neg") {
        bool IsNot = T.Text == "not";
        L.next();
        std::vector<rmir::Operand> Ops;
        if (!parseOperandList(L, C, Ops))
          return false;
        if (Ops.size() != 1)
          return err(T.Begin, SyntaxError, "unary rvalue takes one operand");
        Out = rmir::Rvalue::unary(IsNot ? rmir::UnOp::Not : rmir::UnOp::Neg,
                                  std::move(Ops[0]));
        return true;
      }
      if (T.Text == "aggregate") {
        L.next();
        rmir::TypeRef Ty = parseType(L);
        if (!Ty || !expectPunct(L, "@"))
          return false;
        uint64_t V = 0;
        if (!parseUInt(L, V))
          return false;
        std::vector<rmir::Operand> Ops;
        if (!parseOperandList(L, C, Ops))
          return false;
        Out = rmir::Rvalue::aggregate(Ty, static_cast<unsigned>(V),
                                      std::move(Ops));
        return true;
      }
      if (T.Text == "discriminant") {
        L.next();
        if (!expectPunct(L, "("))
          return false;
        rmir::Place P;
        if (!parsePlace(L, C, P))
          return false;
        if (!expectPunct(L, ")"))
          return false;
        Out = rmir::Rvalue::discriminant(std::move(P));
        return true;
      }
      if (T.Text == "offset") {
        L.next();
        std::vector<rmir::Operand> Ops;
        if (!parseOperandList(L, C, Ops))
          return false;
        if (Ops.size() != 2)
          return err(T.Begin, SyntaxError, "'offset' takes two operands");
        Out = rmir::Rvalue::ptrOffset(std::move(Ops[0]), std::move(Ops[1]));
        return true;
      }
    }
    rmir::Operand O;
    if (!parseOperand(L, C, O))
      return false;
    Out = rmir::Rvalue::use(std::move(O));
    return true;
  }

  // Statements and terminators ------------------------------------------

  bool parseGhost(Lexer &L, FnCtx &C, rmir::BasicBlock &B) {
    static const std::map<std::string, rmir::GhostKind> Kinds = {
        {"unfold", rmir::GhostKind::Unfold},
        {"fold", rmir::GhostKind::Fold},
        {"gunfold", rmir::GhostKind::GUnfold},
        {"gfold", rmir::GhostKind::GFold},
        {"apply", rmir::GhostKind::ApplyLemma},
        {"resolve", rmir::GhostKind::MutRefAutoResolve},
        {"update", rmir::GhostKind::ProphecyAutoUpdate},
        {"assert_pure", rmir::GhostKind::AssertPure}};
    L.next(); // 'ghost'
    Token K = L.next();
    auto It = K.Kind == Tok::Ident ? Kinds.find(K.Text) : Kinds.end();
    if (It == Kinds.end())
      return err(K.Begin, SyntaxError,
                 "expected a ghost kind (unfold/fold/gunfold/gfold/apply/"
                 "resolve/update/assert_pure)");
    rmir::Ghost G;
    G.Kind = It->second;
    if (L.peek().Kind == Tok::Ident) {
      if (!parseName(L, G.Name))
        return false;
    }
    if (!parseOperandList(L, C, G.Args))
      return false;
    if (peekPunct(L, ":")) {
      L.next();
      if (!parseExprRegion(L, G.PureArg))
        return false;
    }
    if (!expectPunct(L, ";"))
      return false;
    B.Stmts.push_back(rmir::Statement::ghost(std::move(G)));
    return true;
  }

  /// Parses one statement or terminator; sets \p Done once the terminator
  /// has been read.
  bool parseStmtOrTerm(Lexer &L, FnCtx &C, rmir::BasicBlock &B, bool &Done) {
    if (peekKw(L, "nop")) {
      L.next();
      if (!expectPunct(L, ";"))
        return false;
      B.Stmts.push_back(rmir::Statement());
      return true;
    }
    if (peekKw(L, "ghost"))
      return parseGhost(L, C, B);
    if (peekKw(L, "free")) {
      L.next();
      rmir::Operand Ptr;
      if (!parseOperand(L, C, Ptr) || !expectPunct(L, ":"))
        return false;
      rmir::TypeRef Ty = parseType(L);
      if (!Ty || !expectPunct(L, ";"))
        return false;
      B.Stmts.push_back(rmir::Statement::free(std::move(Ptr), Ty));
      return true;
    }
    if (peekKw(L, "goto")) {
      L.next();
      rmir::BlockId Tgt = 0;
      if (!parseBlockRef(L, Tgt) || !expectPunct(L, ";"))
        return false;
      B.Term = rmir::Terminator::gotoBlock(Tgt);
      Done = true;
      return true;
    }
    if (peekKw(L, "return")) {
      L.next();
      if (!expectPunct(L, ";"))
        return false;
      B.Term = rmir::Terminator::ret();
      Done = true;
      return true;
    }
    if (peekKw(L, "unreachable")) {
      L.next();
      if (!expectPunct(L, ";"))
        return false;
      B.Term = rmir::Terminator::unreachable();
      Done = true;
      return true;
    }
    if (peekKw(L, "switch")) {
      Token SwTok = L.next();
      rmir::Operand D;
      if (!parseOperand(L, C, D) || !expectPunct(L, "{"))
        return false;
      std::vector<std::pair<__int128, rmir::BlockId>> Arms;
      rmir::BlockId Other = 0;
      bool SawOther = false;
      while (!peekPunct(L, "}")) {
        if (peekKw(L, "_")) {
          Token U = L.next();
          if (SawOther)
            return err(U.Begin, SyntaxError, "duplicate '_' switch arm");
          if (!expectPunct(L, "=>") || !parseBlockRef(L, Other))
            return false;
          SawOther = true;
        } else {
          Token V = L.next();
          if (V.Kind != Tok::Int)
            return err(V.Begin, SyntaxError,
                       "expected an integer or '_' switch arm");
          rmir::BlockId Tgt = 0;
          if (!expectPunct(L, "=>") || !parseBlockRef(L, Tgt))
            return false;
          Arms.emplace_back(V.IntVal, Tgt);
        }
        if (peekPunct(L, ","))
          L.next();
        else
          break;
      }
      if (!expectPunct(L, "}") || !expectPunct(L, ";"))
        return false;
      if (!SawOther)
        return err(SwTok.Begin, SyntaxError, "switch requires a '_' arm");
      B.Term = rmir::Terminator::switchInt(std::move(D), std::move(Arms),
                                           Other);
      Done = true;
      return true;
    }
    if (peekKw(L, "call")) {
      L.next();
      rmir::Place Dest;
      if (!parsePlace(L, C, Dest) || !expectPunct(L, "="))
        return false;
      std::string Callee;
      if (!parseName(L, Callee))
        return false;
      std::vector<rmir::TypeRef> TyArgs;
      if (peekPunct(L, "[")) {
        L.next();
        while (!peekPunct(L, "]")) {
          rmir::TypeRef Ty = parseType(L);
          if (!Ty)
            return false;
          TyArgs.push_back(Ty);
          if (peekPunct(L, ","))
            L.next();
          else
            break;
        }
        if (!expectPunct(L, "]"))
          return false;
      }
      std::vector<rmir::Operand> Args;
      if (!parseOperandList(L, C, Args))
        return false;
      rmir::BlockId Tgt = 0;
      if (!expectPunct(L, "->") || !parseBlockRef(L, Tgt) ||
          !expectPunct(L, ";"))
        return false;
      B.Term = rmir::Terminator::call(std::move(Callee), std::move(Args),
                                      std::move(Dest), Tgt, std::move(TyArgs));
      Done = true;
      return true;
    }
    // Assignment: PLACE = RVALUE ; or PLACE = alloc TYPE ;
    rmir::Place Dest;
    if (!parsePlace(L, C, Dest) || !expectPunct(L, "="))
      return false;
    if (peekKw(L, "alloc")) {
      L.next();
      rmir::TypeRef Ty = parseType(L);
      if (!Ty || !expectPunct(L, ";"))
        return false;
      B.Stmts.push_back(rmir::Statement::alloc(std::move(Dest), Ty));
      return true;
    }
    rmir::Rvalue RV;
    if (!parseRvalue(L, C, RV) || !expectPunct(L, ";"))
      return false;
    B.Stmts.push_back(rmir::Statement::assign(std::move(Dest), std::move(RV)));
    return true;
  }

  // Item parsers ---------------------------------------------------------

  bool parseEnumItem(const ItemRef &I) {
    Lexer L(Text, I.At);
    L.next(); // enum
    std::string Name;
    parseName(L, Name);
    Entity = Name;
    if (M.Prog.Types.lookup(Name))
      return err(I.At, NameError, "duplicate type name '" + Name + "'");
    if (!expectPunct(L, "{"))
      return false;
    std::vector<rmir::VariantDef> Variants;
    while (!peekPunct(L, "}")) {
      rmir::VariantDef V;
      if (!parseName(L, V.Name))
        return false;
      if (peekPunct(L, "{")) {
        L.next();
        while (!peekPunct(L, "}")) {
          rmir::FieldDef F;
          if (!parseName(L, F.Name) || !expectPunct(L, ":"))
            return false;
          F.Ty = parseType(L);
          if (!F.Ty)
            return false;
          V.Fields.push_back(std::move(F));
          if (peekPunct(L, ","))
            L.next();
          else
            break;
        }
        if (!expectPunct(L, "}"))
          return false;
      }
      Variants.push_back(std::move(V));
      if (peekPunct(L, ","))
        L.next();
      else
        break;
    }
    if (!expectPunct(L, "}"))
      return false;
    M.Prog.Types.declareEnum(Name, std::move(Variants));
    return true;
  }

  bool parseStructFields(const ItemRef &I) {
    Lexer L(Text, I.At);
    L.next(); // struct
    std::string Name;
    parseName(L, Name);
    Entity = Name;
    if (!expectPunct(L, "{"))
      return false;
    std::vector<rmir::FieldDef> Fields;
    while (!peekPunct(L, "}")) {
      rmir::FieldDef F;
      if (!parseName(L, F.Name) || !expectPunct(L, ":"))
        return false;
      F.Ty = parseType(L);
      if (!F.Ty)
        return false;
      Fields.push_back(std::move(F));
      if (peekPunct(L, ","))
        L.next();
      else
        break;
    }
    if (!expectPunct(L, "}"))
      return false;
    M.Prog.Types.defineStructFields(M.Prog.Types.lookup(Name),
                                    std::move(Fields));
    return true;
  }

  bool parseFnItem(const ItemRef &I) {
    Lexer L(Text, I.At);
    L.next(); // fn
    std::string Name;
    parseName(L, Name);
    Entity = Name;
    if (M.Prog.lookup(Name))
      return err(I.At, NameError, "duplicate function '" + Name + "'");
    rmir::Function F;
    F.Name = Name;
    if (peekPunct(L, "[")) {
      L.next();
      while (!peekPunct(L, "]")) {
        const Token &T = L.peek();
        if (T.Kind == Tok::Lifetime) {
          F.Lifetimes.push_back(T.Text);
          L.next();
        } else {
          std::string P;
          if (!parseName(L, P))
            return false;
          F.TypeParams.push_back(std::move(P));
        }
        if (peekPunct(L, ","))
          L.next();
        else
          break;
      }
      if (!expectPunct(L, "]"))
        return false;
    }
    if (!expectPunct(L, "{"))
      return false;
    FnCtx C{F, {}};
    while (!peekPunct(L, "}")) {
      const Token &T = L.peek();
      if (T.Kind != Tok::Ident)
        return err(T.Begin, SyntaxError,
                   "expected 'params', 'let', 'suppress' or a block label");
      if (!T.Quoted && T.Text == "params") {
        L.next();
        uint64_t N = 0;
        if (!parseUInt(L, N) || !expectPunct(L, ";"))
          return false;
        F.NumParams = static_cast<unsigned>(N);
      } else if (!T.Quoted && T.Text == "let") {
        L.next();
        std::string LN;
        std::size_t NameAt = L.pos();
        if (!parseName(L, LN) || !expectPunct(L, ":"))
          return false;
        rmir::TypeRef Ty = parseType(L);
        if (!Ty || !expectPunct(L, ";"))
          return false;
        if (C.LocalIds.count(LN))
          return err(NameAt, NameError, "duplicate local '" + LN + "'");
        C.LocalIds.emplace(LN, static_cast<rmir::LocalId>(F.Locals.size()));
        F.Locals.push_back(rmir::Local{LN, Ty});
      } else if (!T.Quoted && T.Text == "suppress") {
        L.next();
        std::string S;
        if (!parseStr(L, S) || !expectPunct(L, ";"))
          return false;
        F.LintSuppress.push_back(std::move(S));
      } else {
        // Block: must be the next label in sequence.
        std::string Want = "bb" + std::to_string(F.Blocks.size());
        if (T.Quoted || T.Text != Want)
          return err(T.Begin, SyntaxError,
                     "expected block label '" + Want +
                         "' (blocks are declared in order)");
        L.next();
        if (!expectPunct(L, ":") || !expectPunct(L, "{"))
          return false;
        rmir::BasicBlock B;
        bool Done = false;
        while (!Done)
          if (!parseStmtOrTerm(L, C, B, Done))
            return false;
        if (!expectPunct(L, "}"))
          return false;
        F.Blocks.push_back(std::move(B));
      }
    }
    L.next(); // '}'
    if (F.Locals.empty())
      return err(I.At, FrontendError,
                 "function '" + Name + "' declares no locals (the first "
                 "local is the return slot)");
    if (F.NumParams + 1 > F.Locals.size())
      return err(I.At, FrontendError,
                 "function '" + Name + "' declares " +
                     std::to_string(F.NumParams) + " params but only " +
                     std::to_string(F.Locals.size()) + " locals");
    std::size_t NBlocks = F.Blocks.size();
    auto CheckTarget = [&](rmir::BlockId B) { return B < NBlocks; };
    for (const rmir::BasicBlock &B : F.Blocks) {
      bool Ok = true;
      switch (B.Term.Kind) {
      case rmir::Terminator::Goto:
      case rmir::Terminator::Call:
        Ok = CheckTarget(B.Term.Target);
        break;
      case rmir::Terminator::SwitchInt:
        Ok = CheckTarget(B.Term.Otherwise);
        for (const auto &[V, T] : B.Term.Arms)
          Ok = Ok && CheckTarget(T);
        break;
      default:
        break;
      }
      if (!Ok)
        return err(I.At, FrontendError,
                   "function '" + Name + "' branches to an undeclared block");
    }
    M.Prog.Funcs.emplace(Name, std::move(F));
    return true;
  }

  bool parsePredItem(const ItemRef &I) {
    Lexer L(Text, I.At);
    L.next(); // pred
    gilsonite::PredDecl D;
    parseName(L, D.Name);
    Entity = "pred:" + D.Name;
    if (M.Preds.contains(D.Name))
      return err(I.At, NameError, "duplicate predicate '" + D.Name + "'");
    while (peekKw(L, "abstract") || peekKw(L, "guardable")) {
      if (L.next().Text == "abstract")
        D.Abstract = true;
      else
        D.Guardable = true;
    }
    if (!expectPunct(L, "{"))
      return false;
    while (!peekPunct(L, "}")) {
      if (peekKw(L, "param")) {
        L.next();
        gilsonite::PredParam P;
        if (!parseName(L, P.Name) || !parseSort(L, P.S))
          return false;
        Token M2 = L.next();
        if (M2.Kind != Tok::Ident || (M2.Text != "in" && M2.Text != "out"))
          return err(M2.Begin, SyntaxError, "expected 'in' or 'out'");
        P.In = M2.Text == "in";
        if (!expectPunct(L, ";"))
          return false;
        D.Params.push_back(std::move(P));
      } else if (peekKw(L, "clause")) {
        L.next();
        gilsonite::AssertionP A;
        if (!parseAssertionRegion(L, A) || !expectPunct(L, ";"))
          return false;
        D.Clauses.push_back(std::move(A));
      } else {
        return err(L.pos(), SyntaxError, "expected 'param', 'clause' or '}'");
      }
    }
    L.next(); // '}'
    M.Preds.declare(std::move(D));
    return true;
  }

  bool parseFreezeItem(const ItemRef &I) {
    Lexer L(Text, I.At);
    L.next(); // lemma
    L.next(); // freeze
    engine::FreezeLemma F;
    parseName(L, F.Name);
    Entity = "lemma:" + F.Name;
    if (!parseName(L, F.FromPred) || !parseName(L, F.ToPred) ||
        !expectPunct(L, ";"))
      return false;
    M.FreezeDecls.push_back(std::move(F));
    return true;
  }

  bool parseExtractItem(const ItemRef &I) {
    Lexer L(Text, I.At);
    L.next(); // lemma
    L.next(); // extract
    engine::ExtractLemma E;
    parseName(L, E.Name);
    Entity = "lemma:" + E.Name;
    if (!expectPunct(L, "{"))
      return false;
    auto ParseArgList = [&](std::vector<Expr> &Out) {
      if (!expectPunct(L, "("))
        return false;
      while (!peekPunct(L, ")")) {
        Expr X;
        if (!parseExprRegion(L, X))
          return false;
        Out.push_back(X);
      }
      return expectPunct(L, ")");
    };
    while (!peekPunct(L, "}")) {
      if (peekKw(L, "param")) {
        L.next();
        std::string P;
        if (!parseName(L, P) || !expectPunct(L, ";"))
          return false;
        E.Params.push_back(std::move(P));
      } else if (peekKw(L, "given")) {
        L.next();
        uint64_t N = 0;
        if (!parseUInt(L, N) || !expectPunct(L, ";"))
          return false;
        E.GivenParams = static_cast<std::size_t>(N);
      } else if (peekKw(L, "mutref")) {
        L.next();
        std::string P;
        if (!parseName(L, P) || !expectPunct(L, ";"))
          return false;
        E.MutRefParams.insert(std::move(P));
      } else if (peekKw(L, "from")) {
        L.next();
        if (!parseName(L, E.FromPred) || !ParseArgList(E.FromArgs) ||
            !expectPunct(L, ";"))
          return false;
      } else if (peekKw(L, "persistent")) {
        L.next();
        if (!parseExprRegion(L, E.Persistent) || !expectPunct(L, ";"))
          return false;
      } else if (peekKw(L, "requires")) {
        L.next();
        if (!parseExprRegion(L, E.Requires) || !expectPunct(L, ";"))
          return false;
      } else if (peekKw(L, "to")) {
        L.next();
        if (!parseName(L, E.ToPred) || !ParseArgList(E.ToArgs) ||
            !expectPunct(L, ";"))
          return false;
      } else if (peekKw(L, "prophecy")) {
        L.next();
        if (!parseName(L, E.NewProphecyHole) || !expectPunct(L, ";"))
          return false;
      } else {
        return err(L.pos(), SyntaxError,
                   "expected an extract-lemma clause or '}'");
      }
    }
    L.next(); // '}'
    M.ExtractDecls.push_back(std::move(E));
    return true;
  }

  bool parseSpecItem(const ItemRef &I) {
    Lexer L(Text, I.At);
    L.next(); // spec
    gilsonite::Spec S;
    parseName(L, S.Func);
    Entity = S.Func;
    if (M.Specs.lookup(S.Func))
      return err(I.At, NameError, "duplicate spec for '" + S.Func + "'");
    if (!expectPunct(L, "{"))
      return false;
    while (!peekPunct(L, "}")) {
      if (peekKw(L, "var")) {
        L.next();
        gilsonite::Binder B;
        if (!parseName(L, B.Name) || !parseSort(L, B.S) ||
            !expectPunct(L, ";"))
          return false;
        S.SpecVars.push_back(std::move(B));
      } else if (peekKw(L, "pre")) {
        L.next();
        if (!parseAssertionRegion(L, S.Pre) || !expectPunct(L, ";"))
          return false;
      } else if (peekKw(L, "post")) {
        L.next();
        if (!parseAssertionRegion(L, S.Post) || !expectPunct(L, ";"))
          return false;
      } else if (peekKw(L, "trusted")) {
        L.next();
        if (!expectPunct(L, ";"))
          return false;
        S.Trusted = true;
      } else if (peekKw(L, "doc")) {
        L.next();
        if (!parseStr(L, S.Doc) || !expectPunct(L, ";"))
          return false;
      } else {
        return err(L.pos(), SyntaxError, "expected a spec clause or '}'");
      }
    }
    L.next(); // '}'
    M.Specs.add(std::move(S));
    return true;
  }

  bool parseContractItem(const ItemRef &I) {
    Lexer L(Text, I.At);
    L.next(); // contract
    creusot::PearliteSpec S;
    parseName(L, S.Func);
    Entity = S.Func;
    if (M.Contracts.lookup(S.Func))
      return err(I.At, NameError, "duplicate contract for '" + S.Func + "'");
    if (!expectPunct(L, "{"))
      return false;
    while (!peekPunct(L, "}")) {
      if (peekKw(L, "param")) {
        L.next();
        creusot::PearliteParam P;
        if (!parseName(L, P.Name))
          return false;
        if (peekKw(L, "mut")) {
          L.next();
          P.IsMutRef = true;
        }
        if (!expectPunct(L, ";"))
          return false;
        S.Params.push_back(std::move(P));
      } else if (peekKw(L, "pre")) {
        L.next();
        if (!parsePearliteRegion(L, S.Pre))
          return false;
      } else if (peekKw(L, "post")) {
        L.next();
        if (!parsePearliteRegion(L, S.Post))
          return false;
      } else if (peekKw(L, "result")) {
        L.next();
        if (!expectPunct(L, ";"))
          return false;
        S.HasResult = true;
      } else if (peekKw(L, "doc")) {
        L.next();
        if (!parseStr(L, S.Doc) || !expectPunct(L, ";"))
          return false;
      } else {
        return err(L.pos(), SyntaxError, "expected a contract clause or '}'");
      }
    }
    L.next(); // '}'
    M.Contracts.add(std::move(S));
    return true;
  }

  bool parseClientItem(const ItemRef &I) {
    Lexer L(Text, I.At);
    L.next(); // client
    creusot::SafeFn F;
    parseName(L, F.Name);
    Entity = F.Name;
    if (M.lookupClient(F.Name))
      return err(I.At, NameError, "duplicate client '" + F.Name + "'");
    if (!expectPunct(L, "("))
      return false;
    while (!peekPunct(L, ")")) {
      std::string P;
      if (!parseName(L, P))
        return false;
      F.Params.push_back(std::move(P));
      if (peekPunct(L, ","))
        L.next();
      else
        break;
    }
    if (!expectPunct(L, ")") || !expectPunct(L, "{"))
      return false;
    while (!peekPunct(L, "}")) {
      creusot::SafeStmt S;
      if (peekKw(L, "let")) {
        L.next();
        S.Kind = creusot::SafeStmt::Let;
        if (!parseName(L, S.Dest) || !expectPunct(L, "="))
          return false;
        if (!parsePearliteRegion(L, S.Term))
          return false;
      } else if (peekKw(L, "assert")) {
        L.next();
        S.Kind = creusot::SafeStmt::Assert;
        if (!parsePearliteRegion(L, S.Term))
          return false;
      } else if (peekKw(L, "call")) {
        L.next();
        S.Kind = creusot::SafeStmt::Call;
        std::string First;
        if (!parseName(L, First))
          return false;
        if (peekPunct(L, "=")) {
          L.next();
          S.Dest = std::move(First);
          if (!parseName(L, S.Callee))
            return false;
        } else {
          S.Callee = std::move(First);
        }
        if (!expectPunct(L, "("))
          return false;
        while (!peekPunct(L, ")")) {
          bool Mut = false;
          if (peekKw(L, "mut")) {
            L.next();
            Mut = true;
          }
          std::string A;
          if (!parseName(L, A))
            return false;
          S.Args.push_back(std::move(A));
          S.ByMutRef.push_back(Mut);
          if (peekPunct(L, ","))
            L.next();
          else
            break;
        }
        if (!expectPunct(L, ")") || !expectPunct(L, ";"))
          return false;
      } else {
        return err(L.pos(), SyntaxError,
                   "expected 'let', 'call', 'assert' or '}'");
      }
      F.Body.push_back(std::move(S));
    }
    L.next(); // '}'
    M.Clients.push_back(std::move(F));
    return true;
  }

  bool parseAutomationItem(const ItemRef &I) {
    Lexer L(Text, I.At);
    L.next(); // automation
    Entity = "automation";
    if (!expectPunct(L, "{"))
      return false;
    while (!peekPunct(L, "}")) {
      Token K = L.next();
      if (K.Kind != Tok::Ident)
        return err(K.Begin, SyntaxError, "expected an automation switch");
      if (K.Text == "fuel") {
        uint64_t N = 0;
        if (!parseUInt(L, N))
          return false;
        M.Auto.HeuristicFuel = static_cast<unsigned>(N);
      } else {
        bool V = false;
        if (!parseBool(L, V))
          return false;
        if (K.Text == "auto_unfold")
          M.Auto.AutoUnfold = V;
        else if (K.Text == "auto_borrow")
          M.Auto.AutoBorrow = V;
        else if (K.Text == "auto_close")
          M.Auto.AutoCloseAtReturn = V;
        else if (K.Text == "obs_extract")
          M.Auto.ObsExtraction = V;
        else if (K.Text == "panics_allowed")
          M.Auto.PanicsAllowed = V;
        else
          return err(K.Begin, SyntaxError,
                     "unknown automation switch '" + K.Text + "'");
      }
      if (!expectPunct(L, ";"))
        return false;
    }
    L.next(); // '}'
    return true;
  }

  bool parseVerifyItem(const ItemRef &I) {
    Lexer L(Text, I.At);
    L.next(); // verify
    Entity.clear();
    while (true) {
      std::size_t At = L.pos();
      std::string N;
      if (!parseName(L, N))
        return false;
      VerifyPending.emplace_back(std::move(N), At);
      if (peekPunct(L, ","))
        L.next();
      else
        break;
    }
    return expectPunct(L, ";");
  }

  // Pass A ---------------------------------------------------------------

  /// Skips to the end of the current item: the matching '}' of its first
  /// top-level brace group, or a ';' at brace depth zero. Character-level
  /// (Lexer::rawItemTail): item bodies may embed S-expr / Pearlite text the
  /// .gilr tokenizer cannot lex.
  bool skipToEnd(Lexer &L) {
    std::size_t At = L.pos();
    if (!L.rawItemTail())
      return err(At, SyntaxError, "unterminated item");
    return true;
  }

  bool splitItems() {
    Lexer L(Text);
    while (true) {
      Token T = L.next();
      if (T.Kind == Tok::End)
        return true;
      Entity.clear();
      if (T.Kind == Tok::Error)
        return err(T.Begin, SyntaxError, T.Text);
      if (T.Kind != Tok::Ident || T.Quoted)
        return err(T.Begin, SyntaxError, "expected an item keyword");
      ItemRef I;
      I.Kw = T.Text;
      I.At = T.Begin;
      if (I.Kw == "param") {
        std::string N;
        std::size_t NameAt = L.pos();
        if (!parseName(L, N) || !expectPunct(L, ";"))
          return false;
        if (M.Prog.Types.lookup(N)) {
          err(NameAt, NameError, "duplicate type name '" + N + "'");
          continue;
        }
        M.Prog.Types.param(N);
        continue;
      }
      if (I.Kw == "automation" || I.Kw == "verify") {
        if (!skipToEnd(L))
          return false;
        Items.push_back(std::move(I));
        continue;
      }
      if (I.Kw == "lemma") {
        Token S = L.next();
        if (S.Kind != Tok::Ident ||
            (S.Text != "freeze" && S.Text != "extract"))
          return err(S.Begin, SyntaxError,
                     "expected 'freeze' or 'extract' after 'lemma'");
        I.Sub = S.Text;
        if (!parseName(L, I.Name) || !skipToEnd(L))
          return false;
        Items.push_back(std::move(I));
        continue;
      }
      if (I.Kw == "struct" || I.Kw == "enum" || I.Kw == "pred" ||
          I.Kw == "fn" || I.Kw == "spec" || I.Kw == "contract" ||
          I.Kw == "client") {
        std::size_t NameAt = L.pos();
        if (!parseName(L, I.Name))
          return false;
        Entity = I.Name;
        bool Keep = true;
        if (I.Kw == "struct") {
          if (!StructNames.insert(I.Name).second ||
              M.Prog.Types.lookup(I.Name)) {
            err(NameAt, NameError, "duplicate type name '" + I.Name + "'");
            Keep = false;
          } else {
            M.Prog.Types.declareStructForward(I.Name);
          }
        }
        if (!skipToEnd(L))
          return false;
        if (Keep)
          Items.push_back(std::move(I));
        continue;
      }
      return err(T.Begin, SyntaxError,
                 "unknown item keyword '" + I.Kw + "'");
    }
  }
};

bool ModuleParser::run() {
  if (!splitItems())
    return false;
  // Pass B: enums first (struct fields may store them), then struct fields
  // (interning every field type), then function bodies (interning every
  // local type), then the remaining items in source order. Item parsers
  // report their own diagnostics; parsing continues across failed items so
  // one run surfaces every error.
  for (const ItemRef &I : Items)
    if (I.Kw == "enum")
      parseEnumItem(I);
  for (const ItemRef &I : Items)
    if (I.Kw == "struct")
      parseStructFields(I);
  for (const ItemRef &I : Items)
    if (I.Kw == "fn")
      parseFnItem(I);
  for (const ItemRef &I : Items) {
    if (I.Kw == "pred")
      parsePredItem(I);
    else if (I.Kw == "lemma" && I.Sub == "freeze")
      parseFreezeItem(I);
    else if (I.Kw == "lemma" && I.Sub == "extract")
      parseExtractItem(I);
    else if (I.Kw == "spec")
      parseSpecItem(I);
    else if (I.Kw == "contract")
      parseContractItem(I);
    else if (I.Kw == "client")
      parseClientItem(I);
    else if (I.Kw == "automation")
      parseAutomationItem(I);
    else if (I.Kw == "verify")
      parseVerifyItem(I);
  }
  // §7.2: every predicate must be well-moded. Checked once the whole table
  // is lowered, since a clause learns out-parameters of the predicates it
  // calls.
  std::set<std::string> ModeChecked;
  for (const ItemRef &I : Items) {
    const gilsonite::PredDecl *D =
        I.Kw == "pred" ? M.Preds.lookup(I.Name) : nullptr;
    if (!D || !ModeChecked.insert(I.Name).second)
      continue;
    Entity = "pred:" + I.Name;
    for (const std::string &E : gilsonite::checkPredModes(*D, M.Preds))
      err(I.At, FrontendError, E);
  }
  Entity.clear();
  for (const auto &[N, At] : VerifyPending) {
    if (!M.Prog.lookup(N) && !M.lookupClient(N))
      err(At, NameError,
          "verify target '" + N + "' is neither a function nor a client");
    else
      M.VerifyList.push_back(N);
  }
  return Diags.empty();
}

} // namespace

ParseResult gilr::frontend::parseString(const std::string &FileName,
                                        const std::string &Text) {
  ParseResult R;
  auto Mod = std::make_unique<Module>();
  Mod->Name = moduleNameFromPath(FileName);
  ModuleParser P(FileName, Text, *Mod, R.Diags);
  if (P.run())
    R.Mod = std::move(Mod);
  return R;
}

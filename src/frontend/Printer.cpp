//===- frontend/Printer.cpp ------------------------------------------------===//

#include "frontend/Printer.h"

#include "frontend/Lexer.h"
#include "gilsonite/Parser.h"

#include <sstream>

using namespace gilr;
using namespace gilr::frontend;

namespace {

/// The reader's sort prediction for a bare variable atom: 'names are
/// lifetimes, everything else Any (gilsonite/Parser.cpp predictSort).
bool sortIsPredicted(const std::string &Name, Sort S) {
  Sort P = (!Name.empty() && Name[0] == '\'') ? Sort::Lft : Sort::Any;
  return P == S;
}

/// True if \p Name lexes as a single Lifetime token ('x followed by ident
/// characters), i.e. can be printed raw in a name position.
bool isLifetimeShaped(const std::string &Name) {
  if (Name.size() < 2 || Name[0] != '\'')
    return false;
  for (std::size_t I = 1; I < Name.size(); ++I) {
    char C = Name[I];
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '_' || C == '$';
    if (!Ok)
      return false;
  }
  return true;
}

/// Renders \p Name for a .gilr name position (which accepts Ident and
/// Lifetime tokens).
std::string name(const std::string &Name) {
  return isLifetimeShaped(Name) ? Name : quoteIdent(Name);
}

std::string escapeStr(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '\\' || C == '"') {
      Out += '\\';
      Out += C;
    } else if (C == '\n') {
      Out += "\\n";
    } else if (C == '\t') {
      Out += "\\t";
    } else {
      Out += C;
    }
  }
  Out += '"';
  return Out;
}

const char *ghostKindName(rmir::GhostKind K) {
  switch (K) {
  case rmir::GhostKind::Unfold:
    return "unfold";
  case rmir::GhostKind::Fold:
    return "fold";
  case rmir::GhostKind::GUnfold:
    return "gunfold";
  case rmir::GhostKind::GFold:
    return "gfold";
  case rmir::GhostKind::ApplyLemma:
    return "apply";
  case rmir::GhostKind::MutRefAutoResolve:
    return "resolve";
  case rmir::GhostKind::ProphecyAutoUpdate:
    return "update";
  case rmir::GhostKind::AssertPure:
    return "assert_pure";
  }
  return "unfold";
}

const char *binOpName(rmir::BinOp Op) {
  switch (Op) {
  case rmir::BinOp::Add:
    return "add";
  case rmir::BinOp::Sub:
    return "sub";
  case rmir::BinOp::Mul:
    return "mul";
  case rmir::BinOp::Eq:
    return "eq";
  case rmir::BinOp::Ne:
    return "ne";
  case rmir::BinOp::Lt:
    return "lt";
  case rmir::BinOp::Le:
    return "le";
  case rmir::BinOp::Gt:
    return "gt";
  case rmir::BinOp::Ge:
    return "ge";
  }
  return "add";
}

/// The .gilr type atom for an assertion position: the rendered type name,
/// quoted as a Gilsonite atom when needed.
std::string tyAtom(rmir::TypeRef T) { return gilsonite::quoteAtom(T->str()); }

class ModulePrinter {
public:
  explicit ModulePrinter(const Module &M) : M(M) {}

  std::string print() {
    printTypes();
    printPreds();
    printLemmas();
    for (const auto &[Name, F] : M.Prog.Funcs)
      printFn(F);
    printSpecs();
    printContracts();
    for (const creusot::SafeFn &C : M.Clients)
      printClient(C);
    printAutomation();
    printVerify();
    return OS.str();
  }

private:
  const Module &M;
  std::ostringstream OS;

  void printTypes() {
    std::vector<rmir::TypeRef> Noms = M.Prog.Types.allNominals();
    for (rmir::TypeRef T : Noms)
      if (T->Kind == rmir::TypeKind::Param)
        OS << "param " << name(T->Name) << ";\n";
    for (rmir::TypeRef T : Noms) {
      if (T->Kind != rmir::TypeKind::Struct)
        continue;
      OS << "\nstruct " << name(T->Name) << " {\n";
      for (const rmir::FieldDef &F : T->Fields)
        OS << "  " << name(F.Name) << ": " << printType(F.Ty) << ",\n";
      OS << "}\n";
    }
    for (rmir::TypeRef T : Noms) {
      if (T->Kind != rmir::TypeKind::Enum || T->IsOptionLike)
        continue;
      OS << "\nenum " << name(T->Name) << " {\n";
      for (const rmir::VariantDef &V : T->Variants) {
        OS << "  " << name(V.Name);
        if (!V.Fields.empty()) {
          OS << " {";
          for (std::size_t I = 0; I < V.Fields.size(); ++I)
            OS << (I ? ", " : " ") << name(V.Fields[I].Name) << ": "
               << printType(V.Fields[I].Ty);
          OS << " }";
        }
        OS << ",\n";
      }
      OS << "}\n";
    }
  }

  void printPreds() {
    for (const auto &[Name, D] : M.Preds.all()) {
      OS << "\npred " << name(Name);
      if (D.Abstract)
        OS << " abstract";
      if (D.Guardable)
        OS << " guardable";
      OS << " {\n";
      for (const gilsonite::PredParam &P : D.Params)
        OS << "  param " << name(P.Name) << " " << sortName(P.S) << " "
           << (P.In ? "in" : "out") << ";\n";
      for (const gilsonite::AssertionP &C : D.Clauses)
        OS << "  clause " << printAssertion(C) << ";\n";
      OS << "}\n";
    }
  }

  void printLemmas() {
    for (const engine::FreezeLemma &L : M.FreezeDecls)
      OS << "\nlemma freeze " << name(L.Name) << " " << name(L.FromPred)
         << " " << name(L.ToPred) << ";\n";
    for (const engine::ExtractLemma &L : M.ExtractDecls) {
      OS << "\nlemma extract " << name(L.Name) << " {\n";
      for (const std::string &P : L.Params)
        OS << "  param " << name(P) << ";\n";
      OS << "  given " << L.GivenParams << ";\n";
      for (const std::string &P : L.MutRefParams)
        OS << "  mutref " << name(P) << ";\n";
      OS << "  from " << name(L.FromPred) << " (";
      for (std::size_t I = 0; I < L.FromArgs.size(); ++I)
        OS << (I ? " " : "") << printExpr(L.FromArgs[I]);
      OS << ");\n";
      if (L.Persistent)
        OS << "  persistent " << printExpr(L.Persistent) << ";\n";
      if (L.Requires)
        OS << "  requires " << printExpr(L.Requires) << ";\n";
      OS << "  to " << name(L.ToPred) << " (";
      for (std::size_t I = 0; I < L.ToArgs.size(); ++I)
        OS << (I ? " " : "") << printExpr(L.ToArgs[I]);
      OS << ");\n";
      OS << "  prophecy " << name(L.NewProphecyHole) << ";\n";
      OS << "}\n";
    }
  }

  // Function bodies ------------------------------------------------------

  std::string place(const rmir::Function &F, const rmir::Place &P) {
    std::string Out = name(F.Locals.at(P.Local).Name);
    for (const rmir::PlaceElem &E : P.Elems) {
      switch (E.Kind) {
      case rmir::PlaceElem::Deref:
        Out += ".*";
        break;
      case rmir::PlaceElem::Field:
        Out += "." + std::to_string(E.Index);
        break;
      case rmir::PlaceElem::Downcast:
        Out += ".@" + std::to_string(E.Index);
        break;
      }
    }
    return Out;
  }

  std::string operand(const rmir::Function &F, const rmir::Operand &O) {
    switch (O.Kind) {
    case rmir::Operand::Copy:
      return "copy " + place(F, O.P);
    case rmir::Operand::Move:
      return "move " + place(F, O.P);
    case rmir::Operand::Const:
      return "const " + printExpr(O.ConstVal) + " : " + printType(O.ConstTy);
    }
    return "";
  }

  std::string operands(const rmir::Function &F,
                       const std::vector<rmir::Operand> &Ops) {
    std::string Out = "(";
    for (std::size_t I = 0; I < Ops.size(); ++I)
      Out += (I ? ", " : "") + operand(F, Ops[I]);
    return Out + ")";
  }

  std::string rvalue(const rmir::Function &F, const rmir::Rvalue &R) {
    switch (R.Kind) {
    case rmir::Rvalue::Use:
      return operand(F, R.Ops.at(0));
    case rmir::Rvalue::BinaryOp:
      return std::string(binOpName(R.BOp)) + operands(F, R.Ops);
    case rmir::Rvalue::UnaryOp:
      return std::string(R.UOp == rmir::UnOp::Not ? "not" : "neg") +
             operands(F, R.Ops);
    case rmir::Rvalue::Aggregate:
      return "aggregate " + printType(R.AggTy) + " @" +
             std::to_string(R.Variant) + " " + operands(F, R.Ops);
    case rmir::Rvalue::Discriminant:
      return "discriminant(" + place(F, R.P) + ")";
    case rmir::Rvalue::RefOf:
      return "&mut " + place(F, R.P);
    case rmir::Rvalue::AddrOf:
      return "&raw " + place(F, R.P);
    case rmir::Rvalue::PtrOffset:
      return "offset" + operands(F, R.Ops);
    }
    return "";
  }

  void printStmt(const rmir::Function &F, const rmir::Statement &S) {
    switch (S.Kind) {
    case rmir::Statement::Assign:
      OS << "    " << place(F, S.Dest) << " = " << rvalue(F, S.RV) << ";\n";
      break;
    case rmir::Statement::Alloc:
      OS << "    " << place(F, S.Dest) << " = alloc " << printType(S.AllocTy)
         << ";\n";
      break;
    case rmir::Statement::Free:
      OS << "    free " << operand(F, S.FreeArg) << " : "
         << printType(S.AllocTy) << ";\n";
      break;
    case rmir::Statement::GhostStmt:
      OS << "    ghost " << ghostKindName(S.G.Kind);
      if (!S.G.Name.empty())
        OS << " " << name(S.G.Name);
      OS << " " << operands(F, S.G.Args);
      if (S.G.PureArg)
        OS << " : " << printExpr(S.G.PureArg);
      OS << ";\n";
      break;
    case rmir::Statement::Nop:
      OS << "    nop;\n";
      break;
    }
  }

  void printTerm(const rmir::Function &F, const rmir::Terminator &T) {
    switch (T.Kind) {
    case rmir::Terminator::Goto:
      OS << "    goto bb" << T.Target << ";\n";
      break;
    case rmir::Terminator::SwitchInt:
      OS << "    switch " << operand(F, T.Discr) << " { ";
      for (const auto &[V, B] : T.Arms)
        OS << int128ToString(V) << " => bb" << B << ", ";
      OS << "_ => bb" << T.Otherwise << " };\n";
      break;
    case rmir::Terminator::Call: {
      OS << "    call " << place(F, T.Dest) << " = " << name(T.Callee);
      if (!T.TypeArgs.empty()) {
        OS << " [";
        for (std::size_t I = 0; I < T.TypeArgs.size(); ++I)
          OS << (I ? ", " : "") << printType(T.TypeArgs[I]);
        OS << "]";
      }
      OS << " " << operands(F, T.Args) << " -> bb" << T.Target << ";\n";
      break;
    }
    case rmir::Terminator::Return:
      OS << "    return;\n";
      break;
    case rmir::Terminator::Unreachable:
      OS << "    unreachable;\n";
      break;
    }
  }

  void printFn(const rmir::Function &F) {
    OS << "\nfn " << name(F.Name);
    if (!F.TypeParams.empty() || !F.Lifetimes.empty()) {
      OS << " [";
      bool First = true;
      for (const std::string &P : F.TypeParams) {
        OS << (First ? "" : ", ") << name(P);
        First = false;
      }
      for (const std::string &L : F.Lifetimes) {
        OS << (First ? "" : ", ") << name(L);
        First = false;
      }
      OS << "]";
    }
    OS << " {\n";
    OS << "  params " << F.NumParams << ";\n";
    for (const rmir::Local &L : F.Locals)
      OS << "  let " << name(L.Name) << ": " << printType(L.Ty) << ";\n";
    for (const std::string &S : F.LintSuppress)
      OS << "  suppress " << escapeStr(S) << ";\n";
    for (std::size_t B = 0; B < F.Blocks.size(); ++B) {
      OS << "  bb" << B << ": {\n";
      for (const rmir::Statement &S : F.Blocks[B].Stmts)
        printStmt(F, S);
      printTerm(F, F.Blocks[B].Term);
      OS << "  }\n";
    }
    OS << "}\n";
  }

  // Spec-side items ------------------------------------------------------

  void printSpecs() {
    for (const auto &[Name, S] : M.Specs.all()) {
      OS << "\nspec " << name(Name) << " {\n";
      for (const gilsonite::Binder &B : S.SpecVars)
        OS << "  var " << name(B.Name) << " " << sortName(B.S) << ";\n";
      if (S.Pre)
        OS << "  pre " << printAssertion(S.Pre) << ";\n";
      if (S.Post)
        OS << "  post " << printAssertion(S.Post) << ";\n";
      if (S.Trusted)
        OS << "  trusted;\n";
      if (!S.Doc.empty())
        OS << "  doc " << escapeStr(S.Doc) << ";\n";
      OS << "}\n";
    }
  }

  void printContracts() {
    for (const auto &[Name, S] : M.Contracts.all()) {
      OS << "\ncontract " << name(Name) << " {\n";
      for (const creusot::PearliteParam &P : S.Params)
        OS << "  param " << name(P.Name) << (P.IsMutRef ? " mut" : "")
           << ";\n";
      if (S.Pre)
        OS << "  pre " << printPearlite(S.Pre) << ";\n";
      if (S.Post)
        OS << "  post " << printPearlite(S.Post) << ";\n";
      if (S.HasResult)
        OS << "  result;\n";
      if (!S.Doc.empty())
        OS << "  doc " << escapeStr(S.Doc) << ";\n";
      OS << "}\n";
    }
  }

  void printClient(const creusot::SafeFn &C) {
    OS << "\nclient " << name(C.Name) << " (";
    for (std::size_t I = 0; I < C.Params.size(); ++I)
      OS << (I ? ", " : "") << name(C.Params[I]);
    OS << ") {\n";
    for (const creusot::SafeStmt &S : C.Body) {
      switch (S.Kind) {
      case creusot::SafeStmt::Let:
        OS << "  let " << name(S.Dest) << " = " << printPearlite(S.Term)
           << ";\n";
        break;
      case creusot::SafeStmt::Assert:
        OS << "  assert " << printPearlite(S.Term) << ";\n";
        break;
      case creusot::SafeStmt::Call:
        OS << "  call ";
        if (!S.Dest.empty())
          OS << name(S.Dest) << " = ";
        OS << name(S.Callee) << "(";
        for (std::size_t I = 0; I < S.Args.size(); ++I) {
          OS << (I ? ", " : "");
          if (I < S.ByMutRef.size() && S.ByMutRef[I])
            OS << "mut ";
          OS << name(S.Args[I]);
        }
        OS << ");\n";
        break;
      }
    }
    OS << "}\n";
  }

  void printAutomation() {
    const engine::Automation &A = M.Auto;
    OS << "\nautomation {\n";
    OS << "  auto_unfold " << (A.AutoUnfold ? "true" : "false") << ";\n";
    OS << "  auto_borrow " << (A.AutoBorrow ? "true" : "false") << ";\n";
    OS << "  auto_close " << (A.AutoCloseAtReturn ? "true" : "false")
       << ";\n";
    OS << "  obs_extract " << (A.ObsExtraction ? "true" : "false") << ";\n";
    OS << "  panics_allowed " << (A.PanicsAllowed ? "true" : "false")
       << ";\n";
    OS << "  fuel " << A.HeuristicFuel << ";\n";
    OS << "}\n";
  }

  void printVerify() {
    if (M.VerifyList.empty())
      return;
    OS << "\nverify ";
    for (std::size_t I = 0; I < M.VerifyList.size(); ++I)
      OS << (I ? ", " : "") << name(M.VerifyList[I]);
    OS << ";\n";
  }
};

} // namespace

std::string gilr::frontend::printType(rmir::TypeRef T) {
  switch (T->Kind) {
  case rmir::TypeKind::Bool:
    return "bool";
  case rmir::TypeKind::Int:
    return rmir::intKindName(T->IntK);
  case rmir::TypeKind::Unit:
    return "()";
  case rmir::TypeKind::RawPtr:
    return "*mut " + printType(T->Pointee);
  case rmir::TypeKind::Ref:
    return "&mut " + printType(T->Pointee);
  case rmir::TypeKind::Array:
    return "[" + printType(T->Pointee) + "; " + std::to_string(T->ArrayLen) +
           "]";
  case rmir::TypeKind::Struct:
  case rmir::TypeKind::Enum:
  case rmir::TypeKind::Param:
    return quoteIdent(T->Name);
  }
  return quoteIdent(T->Name);
}

std::string gilr::frontend::printExpr(const Expr &E) {
  using gilsonite::quoteAtom;
  auto nary = [&](const char *Op) {
    std::string Out = std::string("(") + Op;
    for (const Expr &K : E->Kids)
      Out += " " + printExpr(K);
    return Out + ")";
  };
  switch (E->Kind) {
  case ExprKind::Var:
    if (sortIsPredicted(E->Name, E->NodeSort))
      return quoteAtom(E->Name);
    return "(var " + quoteAtom(E->Name) + " " + sortName(E->NodeSort) + ")";
  case ExprKind::IntLit:
    return int128ToString(E->IntVal);
  case ExprKind::RealLit:
    return "(real " + int128ToString(E->RatVal.Num) + " " +
           int128ToString(E->RatVal.Den) + ")";
  case ExprKind::BoolLit:
    return E->BoolVal ? "true" : "false";
  case ExprKind::UnitLit:
    return "unit";
  case ExprKind::LocLit:
    return "(loc " + std::to_string(E->LocId) + ")";
  case ExprKind::NoneLit:
    return "none";
  case ExprKind::Not:
    return nary("not");
  case ExprKind::And:
    return nary("and");
  case ExprKind::Or:
    return nary("or");
  case ExprKind::Implies:
    return nary("=>");
  case ExprKind::Ite:
    return nary("ite");
  case ExprKind::Eq:
    return nary("=");
  case ExprKind::Lt:
    return nary("<");
  case ExprKind::Le:
    return nary("<=");
  case ExprKind::Add:
    return nary("+");
  case ExprKind::Sub:
    return nary("-");
  case ExprKind::Mul:
    return nary("*");
  case ExprKind::Neg:
    return nary("neg");
  case ExprKind::Some:
    return nary("some");
  case ExprKind::IsSome:
    return nary("is-some");
  case ExprKind::Unwrap:
    return nary("unwrap");
  case ExprKind::SeqNil:
    return "nil";
  case ExprKind::SeqUnit:
    return nary("seq");
  case ExprKind::SeqConcat:
    return nary("++");
  case ExprKind::SeqLen:
    return nary("len");
  case ExprKind::SeqNth:
    return nary("nth");
  case ExprKind::SeqSub:
    return nary("sub");
  case ExprKind::TupleLit:
    return nary("tuple");
  case ExprKind::TupleGet:
    return nary(("get-" + std::to_string(E->Index)).c_str());
  case ExprKind::LftIncl:
    return nary("lft-incl");
  case ExprKind::App: {
    std::string Out = "(app " + quoteAtom(E->Name);
    for (const Expr &K : E->Kids)
      Out += " " + printExpr(K);
    return Out + ")";
  }
  }
  return "unit";
}

std::string gilr::frontend::printAssertion(const gilsonite::AssertionP &A) {
  using gilsonite::AsrtKind;
  using gilsonite::quoteAtom;
  switch (A->Kind) {
  case AsrtKind::Star: {
    if (A->Parts.empty())
      return "emp";
    std::string Out = "(star";
    for (const gilsonite::AssertionP &P : A->Parts)
      Out += " " + printAssertion(P);
    return Out + ")";
  }
  case AsrtKind::Exists: {
    std::string Out = "(exists (";
    for (std::size_t I = 0; I < A->Binders.size(); ++I)
      Out += std::string(I ? " " : "") + "(" + quoteAtom(A->Binders[I].Name) +
             " " + sortName(A->Binders[I].S) + ")";
    return Out + ") " + printAssertion(A->Body) + ")";
  }
  case AsrtKind::Pure:
    return "(pure " + printExpr(A->Formula) + ")";
  case AsrtKind::PointsTo:
    return "(pt " + printExpr(A->Ptr) + " " + tyAtom(A->Ty) + " " +
           printExpr(A->Val) + ")";
  case AsrtKind::UninitPT:
    return "(uninit " + printExpr(A->Ptr) + " " + tyAtom(A->Ty) + ")";
  case AsrtKind::MaybeUninit:
    return "(maybe " + printExpr(A->Ptr) + " " + tyAtom(A->Ty) + " " +
           printExpr(A->Val) + ")";
  case AsrtKind::ArrayPT:
    return "(array " + printExpr(A->Ptr) + " " + tyAtom(A->Ty) + " " +
           printExpr(A->Count) + " " + printExpr(A->Seq) + ")";
  case AsrtKind::ArrayUninit:
    return "(uninit-array " + printExpr(A->Ptr) + " " + tyAtom(A->Ty) + " " +
           printExpr(A->Count) + ")";
  case AsrtKind::PredCall: {
    std::string Out = "(pred " + quoteAtom(A->Name);
    for (const Expr &X : A->Args)
      Out += " " + printExpr(X);
    return Out + ")";
  }
  case AsrtKind::GuardedCall: {
    std::string Out =
        "(guarded " + printExpr(A->Kappa) + " " + quoteAtom(A->Name);
    for (const Expr &X : A->Args)
      Out += " " + printExpr(X);
    return Out + ")";
  }
  case AsrtKind::LftAlive:
    return "(alive " + printExpr(A->Kappa) + " " + printExpr(A->Frac) + ")";
  case AsrtKind::LftDead:
    return "(dead " + printExpr(A->Kappa) + ")";
  case AsrtKind::Observation:
    return "(obs " + printExpr(A->Formula) + ")";
  case AsrtKind::ValueObs:
    return "(vo " + printExpr(A->PcyVar) + " " + printExpr(A->Val) + ")";
  case AsrtKind::ProphCtrl:
    return "(pc " + printExpr(A->PcyVar) + " " + printExpr(A->Val) + ")";
  }
  return "emp";
}

std::string gilr::frontend::printPearlite(const creusot::PTermP &T) {
  using creusot::PKind;
  auto p = [](const creusot::PTermP &K) { return printPearlite(K); };
  auto bin = [&](const char *Op) {
    return "(" + p(T->Kids.at(0)) + " " + Op + " " + p(T->Kids.at(1)) + ")";
  };
  switch (T->Kind) {
  case PKind::Var:
    return T->Name;
  case PKind::Result:
    return "result";
  case PKind::Final:
    return "(^" + p(T->Kids.at(0)) + ")";
  case PKind::Model:
    return "(" + p(T->Kids.at(0)) + "@)";
  case PKind::IntLit:
    return int128ToString(T->IntVal);
  case PKind::BoolLit:
    return T->BoolVal ? "true" : "false";
  case PKind::NoneLit:
    return "None";
  case PKind::SomeCtor:
    return "Some(" + p(T->Kids.at(0)) + ")";
  case PKind::SeqEmpty:
    return "Seq::EMPTY";
  case PKind::SeqCons:
    return "Seq::cons(" + p(T->Kids.at(0)) + ", " + p(T->Kids.at(1)) + ")";
  case PKind::SeqLen:
    return "(" + p(T->Kids.at(0)) + ".len())";
  case PKind::SeqNth:
    return "(" + p(T->Kids.at(0)) + "[" + p(T->Kids.at(1)) + "])";
  case PKind::Eq:
    return bin("==");
  case PKind::Ne:
    return bin("!=");
  case PKind::Lt:
    return bin("<");
  case PKind::Le:
    return bin("<=");
  case PKind::Add:
    return bin("+");
  case PKind::Sub:
    return bin("-");
  case PKind::And:
    return bin("&&");
  case PKind::Or:
    return bin("||");
  case PKind::Not:
    return "(!" + p(T->Kids.at(0)) + ")";
  case PKind::Implies:
    return bin("==>");
  case PKind::MatchOpt:
    return "(match " + p(T->Kids.at(0)) + " { None => " + p(T->Kids.at(1)) +
           ", Some(" + T->Name + ") => " + p(T->Kids.at(2)) + " })";
  }
  return "true";
}

std::string gilr::frontend::printModule(const Module &M) {
  return ModulePrinter(M).print();
}

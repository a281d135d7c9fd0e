//===- tests/pearlite_parser_test.cpp - Textual Pearlite front-end ----------===//
//
// The parser turns the paper's concrete contract syntax (Fig. 3) into the
// same PTerm trees the builder API produces. Tests: precedence and
// postfix/prefix interaction, the match form, attribute blocks, error
// positions, a parse(str(t)) round-trip sweep, and equivalence (after
// lowering) with the programmatically-built LinkedList std contracts.
//
//===----------------------------------------------------------------------===//

#include "creusot/PearliteParser.h"
#include "creusot/SafeVerifier.h"
#include "creusot/StdSpecs.h"
#include "frontend/Corpus.h"
#include "hybrid/Driver.h"
#include "rmir/Type.h"
#include "sym/ExprBuilder.h"
#include "sym/Printer.h"

#include <gtest/gtest.h>

using namespace gilr;
using namespace gilr::creusot;

namespace {

PTermP parseOk(const std::string &Src) {
  Outcome<PTermP> R = parsePearliteTerm(Src);
  EXPECT_TRUE(R.ok()) << Src << ": " << (R.ok() ? "" : R.error());
  return R.ok() ? R.value() : nullptr;
}

std::string parseErr(const std::string &Src) {
  Outcome<PTermP> R = parsePearliteTerm(Src);
  EXPECT_TRUE(R.failed()) << Src << " parsed unexpectedly";
  return R.failed() ? R.error() : "";
}

TEST(PearliteParserTest, Literals) {
  EXPECT_EQ(parseOk("42")->str(), "42");
  EXPECT_EQ(parseOk("1_000")->str(), "1000");
  EXPECT_EQ(parseOk("true")->str(), "true");
  EXPECT_EQ(parseOk("false")->str(), "false");
  EXPECT_EQ(parseOk("None")->str(), "None");
  EXPECT_EQ(parseOk("Seq::EMPTY")->str(), "Seq::EMPTY");
  EXPECT_EQ(parseOk("result")->str(), "result");
  EXPECT_EQ(parseOk("self")->str(), "self");
}

TEST(PearliteParserTest, UsizeMaxIsALiteral) {
  PTermP T = parseOk("usize::MAX");
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->Kind, PKind::IntLit);
  EXPECT_EQ(T->str(), pInt(rmir::intMaxValue(rmir::IntKind::USize))->str());
}

TEST(PearliteParserTest, PostfixChains) {
  EXPECT_EQ(parseOk("self@")->str(), "self@");
  EXPECT_EQ(parseOk("self@.len()")->str(), "self@.len()");
  EXPECT_EQ(parseOk("s@[i]")->str(), "s@[i]");
  EXPECT_EQ(parseOk("s@[i + 1]")->str(), "s@[(i + 1)]");
  // The paper's spelling of "final value's model".
  PTermP T = parseOk("(^self)@");
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->Kind, PKind::Model);
  EXPECT_EQ(T->Kids[0]->Kind, PKind::Final);
}

TEST(PearliteParserTest, CaretBindsLooserThanPostfix) {
  // ^self@ is Final(Model(self)) — the paper parenthesises (^self)@ for the
  // other association; document the precedence here.
  PTermP T = parseOk("^self@");
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->Kind, PKind::Final);
  EXPECT_EQ(T->Kids[0]->Kind, PKind::Model);
}

TEST(PearliteParserTest, Precedence) {
  // + binds tighter than ==, which binds tighter than &&, than ||, than ==>.
  EXPECT_EQ(parseOk("a + b == c && d ==> e || f")->str(),
            "((((a + b) == c) && d) ==> (e || f))");
  // Implication is right-associative.
  EXPECT_EQ(parseOk("a ==> b ==> c")->str(), "(a ==> (b ==> c))");
  // Unary ! stacks and binds tighter than &&.
  EXPECT_EQ(parseOk("!a && !!b")->str(), "(!a && !!b)");
  EXPECT_EQ(parseOk("a - b - c")->str(), "((a - b) - c)");
}

TEST(PearliteParserTest, GtGeDesugarToSwappedLtLe) {
  EXPECT_EQ(parseOk("a > b")->str(), "(b < a)");
  EXPECT_EQ(parseOk("a >= b")->str(), "(b <= a)");
}

TEST(PearliteParserTest, Constructors) {
  EXPECT_EQ(parseOk("Some(x)")->str(), "Some(x)");
  EXPECT_EQ(parseOk("Seq::cons(x, self@)")->str(), "Seq::cons(x, self@)");
  EXPECT_EQ(parseOk("Some(Seq::cons(1, Seq::EMPTY))")->str(),
            "Some(Seq::cons(1, Seq::EMPTY))");
}

TEST(PearliteParserTest, MatchBothArmOrders) {
  const char *Canonical = "match result { None => a, Some(x) => b }";
  PTermP T1 = parseOk(Canonical);
  ASSERT_NE(T1, nullptr);
  EXPECT_EQ(T1->str(), Canonical);
  // Arms may come in either order; a trailing comma is allowed.
  PTermP T2 = parseOk("match result { Some(x) => b, None => a, }");
  ASSERT_NE(T2, nullptr);
  EXPECT_EQ(T2->str(), Canonical);
}

TEST(PearliteParserTest, Fig3PopFrontContractText) {
  // The exact shape of Fig. 3's pop_front postcondition.
  PTermP T = parseOk("match result { None => self@ == Seq::EMPTY && "
                     "(^self)@ == Seq::EMPTY, Some(x) => self@ == "
                     "Seq::cons(x, (^self)@) }");
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->Kind, PKind::MatchOpt);
  EXPECT_EQ(T->Name, "x");
}

TEST(PearliteParserTest, Errors) {
  EXPECT_NE(parseErr("(a").find("expected ')'"), std::string::npos);
  EXPECT_NE(parseErr("a b").find("trailing input"), std::string::npos);
  EXPECT_NE(parseErr("a $ b").find("unexpected character"),
            std::string::npos);
  EXPECT_NE(parseErr("a ==").find("expected a term"), std::string::npos);
  EXPECT_NE(parseErr("s.first()").find("only '.len()'"), std::string::npos);
  EXPECT_NE(parseErr("match r { None => a, None => b }")
                .find("duplicate None arm"),
            std::string::npos);
  EXPECT_NE(parseErr("match r { None => a Some(x) => b }")
                .find("expected ','"),
            std::string::npos);
  EXPECT_NE(parseErr("Some(x").find("expected ')'"), std::string::npos);
}

TEST(PearliteParserTest, ErrorsCarryOffsets) {
  EXPECT_NE(parseErr("a && $").find("offset 5"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Round-trip property: parse(str(t)) == t (by printed form) over a pool of
// generated terms. Model-of-Final is excluded: it prints as `^x@`, which
// reparses under the documented precedence as Final-of-Model (the paper
// always writes the parenthesised form).
//===----------------------------------------------------------------------===//

class RoundTripTest : public ::testing::TestWithParam<int> {};

PTermP poolTerm(int Seed) {
  PTermP A = pVar("a"), B = pVar("b"), S = pVar("s");
  switch (Seed % 16) {
  case 0:
    return pEq(pAdd(A, pInt(1)), B);
  case 1:
    return pImplies(pLt(A, B), pLe(B, A));
  case 2:
    return pAnd(pNot(pEq(A, B)), pOr(pBool(true), pBool(false)));
  case 3:
    return pEq(pModel(S), pSeqCons(A, pSeqEmpty()));
  case 4:
    return pLt(pSeqLen(pModel(S)), pInt(rmir::intMaxValue(rmir::IntKind::USize)));
  case 5:
    return pMatchOpt(pResult(), pEq(A, B), "x", pNe(pVar("x"), A));
  case 6:
    return pEq(pSeqNth(pModel(S), pInt(0)), A);
  case 7:
    return pEq(pResult(), pSome(A));
  case 8:
    return pSub(pSub(A, B), pInt(2));
  case 9:
    return pEq(pFinal(S), pModel(S)); // ^s == s@ (Final of plain var).
  case 10:
    return pImplies(pImplies(A, B), A);
  case 11:
    return pNe(pSome(pSeqCons(A, pModel(S))), pNone());
  case 12:
    return pAnd(pAnd(A, B), pNot(B));
  case 13:
    return pEq(pSeqLen(pSeqCons(A, pSeqEmpty())), pInt(1));
  case 14:
    return pMatchOpt(pVar("o"), pBool(true), "y",
                     pLt(pInt(0), pSeqLen(pModel(pVar("y")))));
  default:
    return pOr(pEq(A, pInt(3)), pEq(B, pInt(-0 + 4)));
  }
}

TEST_P(RoundTripTest, ParseOfStrIsIdentity) {
  PTermP T = poolTerm(GetParam());
  Outcome<PTermP> R = parsePearliteTerm(T->str());
  ASSERT_TRUE(R.ok()) << T->str() << ": " << R.error();
  EXPECT_EQ(R.value()->str(), T->str());
}

INSTANTIATE_TEST_SUITE_P(Pool, RoundTripTest, ::testing::Range(0, 16));

//===----------------------------------------------------------------------===//
// Attribute blocks
//===----------------------------------------------------------------------===//

TEST(PearliteContractTest, RequiresAndEnsures) {
  Outcome<ParsedContract> R = parsePearliteContract(
      "#[requires(self@.len() < usize::MAX)] "
      "#[ensures((^self)@ == Seq::cons(x@, self@))]");
  ASSERT_TRUE(R.ok()) << R.error();
  ASSERT_NE(R.value().Pre, nullptr);
  ASSERT_NE(R.value().Post, nullptr);
  EXPECT_EQ(R.value().Pre->Kind, PKind::Lt);
  EXPECT_EQ(R.value().Post->Kind, PKind::Eq);
}

TEST(PearliteContractTest, MultipleClausesConjoin) {
  Outcome<ParsedContract> R = parsePearliteContract(
      "#[ensures(a == b)] #[ensures(c == d)]");
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R.value().Pre, nullptr);
  ASSERT_NE(R.value().Post, nullptr);
  EXPECT_EQ(R.value().Post->str(), "((a == b) && (c == d))");
}

TEST(PearliteContractTest, EmptyBlockIsTrivialContract) {
  Outcome<ParsedContract> R = parsePearliteContract("");
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R.value().Pre, nullptr);
  EXPECT_EQ(R.value().Post, nullptr);
}

TEST(PearliteContractTest, RejectsUnknownAttribute) {
  Outcome<ParsedContract> R = parsePearliteContract("#[invariant(a)]");
  EXPECT_TRUE(R.failed());
}

TEST(PearliteContractTest, RejectsStrayText) {
  Outcome<ParsedContract> R = parsePearliteContract("fn foo() {}");
  EXPECT_TRUE(R.failed());
}

//===----------------------------------------------------------------------===//
// The parsed Doc texts of the std contracts lower to the same expressions
// as the programmatically-built PTerms — text is a faithful alternative
// front-end for the whole hybrid pipeline.
//===----------------------------------------------------------------------===//

class DocEquivalenceTest : public ::testing::Test {
protected:
  DocEquivalenceTest() {
    Env.Values["self"] =
        mkTuple({mkVar("cur", Sort::Seq), mkVar("fut", Sort::Seq)});
    Env.IsMutRef["self"] = true;
    Env.Values["x"] = mkVar("xv", Sort::Int);
    Env.ResultVal = mkVar("ret", Sort::Any);
  }

  /// Lowers both terms and asserts expression equality.
  void expectEquivalent(const PTermP &Parsed, const PTermP &Built) {
    ASSERT_NE(Parsed, nullptr);
    ASSERT_NE(Built, nullptr);
    Outcome<Expr> LP = lowerPearlite(Parsed, Env);
    Outcome<Expr> LB = lowerPearlite(Built, Env);
    ASSERT_TRUE(LP.ok()) << Parsed->str() << ": " << LP.error();
    ASSERT_TRUE(LB.ok()) << Built->str() << ": " << LB.error();
    EXPECT_TRUE(exprEquals(LP.value(), LB.value()))
        << "parsed:  " << exprToString(LP.value())
        << "\nbuilt:   " << exprToString(LB.value());
  }

  LowerEnv Env;
};

TEST_F(DocEquivalenceTest, NewContract) {
  PearliteSpecTable T = makeLinkedListSpecs();
  const PearliteSpec *S = T.lookup("LinkedList::new");
  ASSERT_NE(S, nullptr);
  Outcome<ParsedContract> R = parsePearliteContract(S->Doc);
  ASSERT_TRUE(R.ok()) << R.error();
  expectEquivalent(R.value().Post, S->Post);
  EXPECT_EQ(R.value().Pre, nullptr);
}

TEST_F(DocEquivalenceTest, PushFrontContract) {
  PearliteSpecTable T = makeLinkedListSpecs();
  const PearliteSpec *S = T.lookup("LinkedList::push_front");
  ASSERT_NE(S, nullptr);
  Outcome<ParsedContract> R = parsePearliteContract(S->Doc);
  ASSERT_TRUE(R.ok()) << R.error();
  // The text writes x@ where the builder wrote x; models of non-reference
  // values coincide with the values, so the lowerings agree.
  expectEquivalent(R.value().Pre, S->Pre);
  expectEquivalent(R.value().Post, S->Post);
}

TEST_F(DocEquivalenceTest, PopFrontContract) {
  PearliteSpecTable T = makeLinkedListSpecs();
  const PearliteSpec *S = T.lookup("LinkedList::pop_front");
  ASSERT_NE(S, nullptr);
  Outcome<ParsedContract> R = parsePearliteContract(S->Doc);
  ASSERT_TRUE(R.ok()) << R.error();
  expectEquivalent(R.value().Post, S->Post);
}

TEST_F(DocEquivalenceTest, IsEmptyContract) {
  PearliteSpecTable T = makeLinkedListSpecs();
  const PearliteSpec *S = T.lookup("LinkedList::is_empty");
  ASSERT_NE(S, nullptr);
  Outcome<ParsedContract> R = parsePearliteContract(S->Doc);
  ASSERT_TRUE(R.ok()) << R.error();
  expectEquivalent(R.value().Post, S->Post);
}

} // namespace

//===----------------------------------------------------------------------===//
// The text-built table (makeLinkedListSpecsFromText) is interchangeable
// with the programmatic one: every contract lowers identically, and it can
// drive both sides of the hybrid pipeline.
//===----------------------------------------------------------------------===//

namespace textpipe {

class TextTableTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TextTableTest, LowersSameAsProgrammaticTable) {
  PearliteSpecTable Built = makeLinkedListSpecs();
  PearliteSpecTable Text = makeLinkedListSpecsFromText();
  const PearliteSpec *B = Built.lookup(GetParam());
  const PearliteSpec *T = Text.lookup(GetParam());
  ASSERT_NE(B, nullptr);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(B->Params.size(), T->Params.size());
  EXPECT_EQ(B->HasResult, T->HasResult);

  LowerEnv Env;
  Env.Values["self"] =
      mkTuple({mkVar("cur", Sort::Seq), mkVar("fut", Sort::Seq)});
  Env.IsMutRef["self"] = true;
  Env.Values["x"] = mkVar("xv", Sort::Int);
  Env.ResultVal = mkVar("ret", Sort::Any);

  auto check = [&](const PTermP &A, const PTermP &C) {
    ASSERT_EQ(A == nullptr, C == nullptr);
    if (!A)
      return;
    Outcome<Expr> LA = lowerPearlite(A, Env);
    Outcome<Expr> LC = lowerPearlite(C, Env);
    ASSERT_TRUE(LA.ok()) << LA.error();
    ASSERT_TRUE(LC.ok()) << LC.error();
    EXPECT_TRUE(exprEquals(LA.value(), LC.value()))
        << "built: " << exprToString(LA.value())
        << "\ntext:  " << exprToString(LC.value());
  };
  check(B->Pre, T->Pre);
  // front_mut's programmatic spec and the text spec state the Some-arm
  // length bound with the operands in the same orientation (0 < len).
  check(B->Post, T->Post);
}

INSTANTIATE_TEST_SUITE_P(
    LinkedListContracts, TextTableTest,
    ::testing::Values("LinkedList::new", "LinkedList::push_front",
                      "LinkedList::pop_front", "LinkedList::front_mut",
                      "LinkedList::is_empty", "LinkedList::push_front_node",
                      "LinkedList::pop_front_node"));

TEST(TextPipelineTest, TextContractDrivesGillianSide) {
  // Swap the text-built table in and re-encode push_front_node's spec from
  // it: the unsafe side must still verify the implementation against it.
  auto Lib =
      frontend::loadModule(GILR_CORPUS_DIR "/linkedlist_functional.gilr");
  Lib->Contracts = makeLinkedListSpecsFromText();
  engine::VerifEnv Env = Lib->env();
  gilr::hybrid::HybridDriver Driver(Env, Lib->Contracts);
  Outcome<Unit> E = Driver.encodeAndRegister("LinkedList::push_front_node");
  ASSERT_TRUE(E.ok()) << E.error();
  engine::Verifier V(Env);
  engine::VerifyReport R = V.verifyFunction("LinkedList::push_front_node");
  EXPECT_TRUE(R.Ok) << (R.Errors.empty() ? "" : R.Errors.front());
}

TEST(TextPipelineTest, TextContractDrivesCreusotSide) {
  // The safe clients verify against the text-parsed contracts alone.
  auto Lib =
      frontend::loadModule(GILR_CORPUS_DIR "/linkedlist_functional.gilr");
  PearliteSpecTable Text = makeLinkedListSpecsFromText();
  creusot::SafeVerifier SV(Text, Lib->Solv);
  for (const creusot::SafeFn &F : Lib->verifyClients()) {
    creusot::SafeReport R = SV.verify(F);
    EXPECT_TRUE(R.Ok) << F.Name << ": "
                      << (R.Errors.empty() ? "" : R.Errors.front());
  }
}

} // namespace textpipe

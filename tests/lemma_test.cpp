//===- tests/lemma_test.cpp - Borrow extraction / freezing lemmas (§4.3) ----===//
//
// The lemma machinery is exercised end-to-end by front_mut; here we test
// registration-time verification in isolation: sound lemmas are accepted
// (their hypothesis proofs run automatically, §6) and unsound ones are
// rejected.
//
//===----------------------------------------------------------------------===//

#include "engine/Lemma.h"
#include "engine/Produce.h"
#include "frontend/Corpus.h"
#include "sym/ExprBuilder.h"

#include <gtest/gtest.h>

using namespace gilr;
using namespace gilr::engine;
using namespace gilr::gilsonite;

namespace {

class LemmaTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    Lib = frontend::loadModule(GILR_CORPUS_DIR "/linkedlist_safety.gilr")
              .release();
  }
  static void TearDownTestSuite() {
    delete Lib;
    Lib = nullptr;
  }
  static frontend::Module *Lib;
};

frontend::Module *LemmaTest::Lib = nullptr;

TEST_F(LemmaTest, FrontMutLemmasWereProvenAtBuild) {
  // Loading linkedlist_safety registers ll_freeze_list and ll_extract_head;
  // their hypothesis proofs ran automatically (a failure aborts the load).
  EXPECT_TRUE(Lib->Lemmas.contains("ll_freeze_list"));
  EXPECT_TRUE(Lib->Lemmas.contains("ll_extract_head"));
}

TEST_F(LemmaTest, FreezeOverUndeclaredPredicateIsRejected) {
  engine::VerifEnv Env = Lib->env();
  FreezeLemma L;
  L.Name = "bogus";
  L.FromPred = "no_such_pred";
  L.ToPred = "frozen$LL";
  EXPECT_TRUE(Lib->Lemmas.registerFreeze(L, Env).failed());
}

TEST_F(LemmaTest, FreezeWithNonEntailingBodyIsRejected) {
  // A "frozen" predicate whose body does NOT contain the original borrow's
  // content cannot justify closing the borrow: registration must fail.
  engine::VerifEnv Env = Lib->env();
  PredDecl Bad;
  Bad.Name = "frozen$broken";
  Bad.Params = {PredParam{"p", Sort::Any, true},
                PredParam{"x", Sort::Any, true}};
  Bad.Guardable = true;
  Bad.Clauses = {pure(mkTrue())}; // Contains nothing.
  Lib->Preds.declareIfAbsent(Bad);

  FreezeLemma L;
  L.Name = "bad_freeze";
  L.FromPred = OwnableRegistry::mutRefInnerName(
      Lib->Prog.Types.lookup("LinkedList<T>"));
  L.ToPred = "frozen$broken";
  Outcome<Unit> R = Lib->Lemmas.registerFreeze(L, Env);
  EXPECT_TRUE(R.failed());
  EXPECT_FALSE(Lib->Lemmas.contains("bad_freeze"));
}

TEST_F(LemmaTest, ExtractionOfUnrelatedMemoryIsRejected) {
  // Extracting a borrow of memory the source borrow does not own: the
  // wand-packaging hypothesis proof must fail.
  engine::VerifEnv Env = Lib->env();
  ExtractLemma L;
  L.Name = "bad_extract";
  L.Params = {"r", "p", "x", "v"};
  L.GivenParams = 1;
  L.MutRefParams = {"r"};
  L.FromPred = "frozen$LL";
  L.FromArgs = {mkVar("p", Sort::Any), mkVar("x", Sort::Any),
                mkVar("v", Sort::Tuple)};
  // No Requires linking r's pointer to the list's content: the extracted
  // pointer is arbitrary memory.
  L.ToPred =
      OwnableRegistry::mutRefInnerName(Lib->Prog.Types.lookup("T"));
  L.ToArgs = {mkTupleGet(mkVar("r", Sort::Tuple), 0),
              mkTupleGet(mkVar("r", Sort::Tuple), 1)};
  L.NewProphecyHole = "r";
  Outcome<Unit> R = Lib->Lemmas.registerExtract(L, Env);
  EXPECT_TRUE(R.failed());
}

TEST_F(LemmaTest, ApplyingUnknownLemmaFails) {
  engine::VerifEnv Env = Lib->env();
  SymState St;
  EXPECT_TRUE(Lib->Lemmas.apply("no_such_lemma", {}, St, Env).failed());
}

TEST_F(LemmaTest, FreezeApplicationNeedsAnOpenBorrow) {
  engine::VerifEnv Env = Lib->env();
  SymState St; // No closing token anywhere.
  Outcome<Unit> R = Lib->Lemmas.apply("ll_freeze_list", {}, St, Env);
  EXPECT_TRUE(R.failed());
  EXPECT_NE(R.error().find("no open borrow"), std::string::npos);
}

} // namespace

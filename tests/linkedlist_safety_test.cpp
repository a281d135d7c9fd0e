//===- tests/linkedlist_safety_test.cpp - E1: type safety (§6) --------------===//
//
// The first experiment of the paper's evaluation: type safety of
// LinkedList::{new, push_front, pop_front, front_mut} against #[show_safety]
// specs, with only front_mut needing the two declared lemmas.
//
//===----------------------------------------------------------------------===//

#include "engine/Verifier.h"
#include "frontend/Corpus.h"

#include <gtest/gtest.h>

using namespace gilr;

namespace {

const char *const SafetyModule = GILR_CORPUS_DIR "/linkedlist_safety.gilr";

class SafetyTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    Lib = frontend::loadModule(SafetyModule).release();
  }
  static void TearDownTestSuite() {
    delete Lib;
    Lib = nullptr;
  }
  static frontend::Module *Lib;

  engine::VerifyReport verify(const std::string &Name) {
    engine::VerifEnv Env = Lib->env();
    engine::Verifier V(Env);
    return V.verifyFunction(Name);
  }
};

frontend::Module *SafetyTest::Lib = nullptr;

TEST_F(SafetyTest, LibraryBuilds) {
  ASSERT_NE(Lib, nullptr);
  EXPECT_NE(Lib->Prog.lookup("LinkedList::new"), nullptr);
  EXPECT_NE(Lib->Prog.lookup("LinkedList::pop_front_node"), nullptr);
  EXPECT_TRUE(Lib->Preds.contains("dllSeg"));
  EXPECT_TRUE(Lib->Preds.contains("own$LinkedList<T>"));
  EXPECT_TRUE(Lib->Lemmas.contains("ll_freeze_list"));
  EXPECT_TRUE(Lib->Lemmas.contains("ll_extract_head"));
}

TEST_F(SafetyTest, New) {
  engine::VerifyReport R = verify("LinkedList::new");
  EXPECT_TRUE(R.Ok) << (R.Errors.empty() ? "" : R.Errors.front());
  EXPECT_GE(R.PathsCompleted, 1u);
}

TEST_F(SafetyTest, PushFrontNode) {
  engine::VerifyReport R = verify("LinkedList::push_front_node");
  EXPECT_TRUE(R.Ok) << (R.Errors.empty() ? "" : R.Errors.front());
  // Both the empty-list and non-empty-list paths complete (plus the safe
  // panic path of len + 1).
  EXPECT_GE(R.PathsCompleted, 2u);
}

TEST_F(SafetyTest, PopFrontNode) {
  engine::VerifyReport R = verify("LinkedList::pop_front_node");
  EXPECT_TRUE(R.Ok) << (R.Errors.empty() ? "" : R.Errors.front());
  EXPECT_GE(R.PathsCompleted, 3u); // None, Some-last, Some-more.
}

TEST_F(SafetyTest, PushFront) {
  engine::VerifyReport R = verify("LinkedList::push_front");
  EXPECT_TRUE(R.Ok) << (R.Errors.empty() ? "" : R.Errors.front());
}

TEST_F(SafetyTest, PopFront) {
  engine::VerifyReport R = verify("LinkedList::pop_front");
  EXPECT_TRUE(R.Ok) << (R.Errors.empty() ? "" : R.Errors.front());
}

TEST_F(SafetyTest, FrontMut) {
  engine::VerifyReport R = verify("LinkedList::front_mut");
  EXPECT_TRUE(R.Ok) << (R.Errors.empty() ? "" : R.Errors.front());
  EXPECT_GE(R.PathsCompleted, 2u);
}

TEST_F(SafetyTest, IsEmptyAndLen) {
  EXPECT_TRUE(verify("LinkedList::is_empty").Ok);
  EXPECT_TRUE(verify("LinkedList::len_mut").Ok);
}

TEST_F(SafetyTest, AnnotationCountsMatchPaper) {
  // §6: "no function other than front_mut requires additional annotations"
  // — modulo the mutref_auto_resolve! tactic line the node-level functions
  // carry (Fig. 3 shows it on pop_front).
  EXPECT_EQ(engine::countGhostAnnotations(*Lib->Prog.lookup("LinkedList::new")),
            0u);
  EXPECT_EQ(engine::countGhostAnnotations(
                *Lib->Prog.lookup("LinkedList::push_front")),
            0u);
  EXPECT_EQ(engine::countGhostAnnotations(
                *Lib->Prog.lookup("LinkedList::pop_front")),
            0u);
  // front_mut: the 2 lemma applications the paper reports, plus the
  // branch-local resolve line our functional-front_mut extension adds.
  EXPECT_EQ(engine::countGhostAnnotations(
                *Lib->Prog.lookup("LinkedList::front_mut")),
            3u);
}

TEST_F(SafetyTest, WholeE1SuiteVerifies) {
  engine::VerifEnv Env = Lib->env();
  engine::Verifier V(Env);
  double Total = 0.0;
  for (const std::string &Name : Lib->verifyFuncs()) {
    engine::VerifyReport R = V.verifyFunction(Name);
    EXPECT_TRUE(R.Ok) << Name << ": "
                      << (R.Errors.empty() ? "" : R.Errors.front());
    Total += R.Seconds;
  }
  // The paper reports 0.16 s on a 2019 laptop; we only require the same
  // order of magnitude ("the resulting verification process is fast").
  EXPECT_LT(Total, 30.0);
}

TEST_F(SafetyTest, AblationAutoCloseMatters) {
  // A1's fourth row (bench_ablation): with automatic borrow closing off,
  // replace_front — the one function without a mutref_auto_resolve! tactic
  // line — fails at return with an open borrow, while front_mut (whose
  // resolve ghost closes explicitly) still verifies.
  auto Lib2 = frontend::loadModule(SafetyModule);
  Lib2->Auto.AutoCloseAtReturn = false;
  engine::VerifEnv Env = Lib2->env();
  engine::Verifier V(Env);
  EXPECT_FALSE(V.verifyFunction("LinkedList::replace_front").Ok);
  EXPECT_TRUE(V.verifyFunction("LinkedList::front_mut").Ok);
}

} // namespace

//===----------------------------------------------------------------------===//
// Negative tests: injected bugs must be rejected (the Fig. 7 story).
//===----------------------------------------------------------------------===//

namespace {

class BuggyVariantTest : public ::testing::TestWithParam<std::string> {
protected:
  static void SetUpTestSuite() {
    Lib = frontend::loadModule(GILR_CORPUS_DIR "/linkedlist_buggy.gilr")
              .release();
  }
  static void TearDownTestSuite() {
    delete Lib;
    Lib = nullptr;
  }
  static frontend::Module *Lib;
};

frontend::Module *BuggyVariantTest::Lib = nullptr;

TEST_P(BuggyVariantTest, VerificationRejectsTheBug) {
  engine::VerifEnv Env = Lib->env();
  engine::Verifier V(Env);
  engine::VerifyReport R = V.verifyFunction(GetParam());
  EXPECT_FALSE(R.Ok) << GetParam()
                     << " verified despite the injected bug";
  EXPECT_FALSE(R.Errors.empty());
}

INSTANTIATE_TEST_SUITE_P(
    InjectedBugs, BuggyVariantTest,
    ::testing::Values("LinkedList::push_front_node_noprev",
                      "LinkedList::push_front_node_cycle",
                      "LinkedList::push_front_node_nolen"),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param.substr(Info.param.rfind('_') + 1);
    });

} // namespace

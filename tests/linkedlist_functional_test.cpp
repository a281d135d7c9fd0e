//===- tests/linkedlist_functional_test.cpp - E2: functional correctness ----===//
//
// The second experiment of §6: functional correctness of new,
// push_front_node and pop_front_node against the Pearlite contracts encoded
// into Gilsonite (§5.4), "the strongest possible specifications one can
// give in our framework".
//
//===----------------------------------------------------------------------===//

#include "engine/Verifier.h"
#include "frontend/Corpus.h"

#include <gtest/gtest.h>

using namespace gilr;

namespace {

const char *const FunctionalModule =
    GILR_CORPUS_DIR "/linkedlist_functional.gilr";

class FunctionalTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    Lib = frontend::loadModule(FunctionalModule).release();
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

frontend::Module *FunctionalTest::Lib = nullptr;

TEST_F(FunctionalTest, EncodedSpecsRegistered) {
  ASSERT_NE(Lib, nullptr);
  const gilsonite::Spec *S = Lib->Specs.lookup("LinkedList::pop_front_node");
  ASSERT_NE(S, nullptr);
  EXPECT_NE(S->Doc.find("Pearlite"), std::string::npos);
  // The encoding placed the contract into an observation (§5.4 schema).
  EXPECT_NE(S->Post->str().find("<"), std::string::npos);
}

TEST_F(FunctionalTest, New) {
  engine::VerifyReport R = verify("LinkedList::new");
  EXPECT_TRUE(R.Ok) << (R.Errors.empty() ? "" : R.Errors.front());
}

TEST_F(FunctionalTest, PushFrontNode) {
  engine::VerifyReport R = verify("LinkedList::push_front_node");
  EXPECT_TRUE(R.Ok) << (R.Errors.empty() ? "" : R.Errors.front());
  EXPECT_GE(R.PathsCompleted, 2u);
}

TEST_F(FunctionalTest, PopFrontNode) {
  engine::VerifyReport R = verify("LinkedList::pop_front_node");
  EXPECT_TRUE(R.Ok) << (R.Errors.empty() ? "" : R.Errors.front());
  EXPECT_GE(R.PathsCompleted, 3u);
}

TEST_F(FunctionalTest, PushFrontViaCalleeSpec) {
  // Compositional verification: push_front is verified against
  // push_front_node's *spec*, not its body.
  engine::VerifyReport R = verify("LinkedList::push_front");
  EXPECT_TRUE(R.Ok) << (R.Errors.empty() ? "" : R.Errors.front());
}

TEST_F(FunctionalTest, PopFrontViaCalleeSpec) {
  engine::VerifyReport R = verify("LinkedList::pop_front");
  EXPECT_TRUE(R.Ok) << (R.Errors.empty() ? "" : R.Errors.front());
}

TEST_F(FunctionalTest, WholeE2SuiteVerifies) {
  engine::VerifEnv Env = Lib->env();
  engine::Verifier V(Env);
  double Total = 0.0;
  for (const std::string &Name : Lib->verifyFuncs()) {
    engine::VerifyReport R = V.verifyFunction(Name);
    EXPECT_TRUE(R.Ok) << Name << ": "
                      << (R.Errors.empty() ? "" : R.Errors.front());
    Total += R.Seconds;
  }
  EXPECT_LT(Total, 30.0); // Paper: 0.18 s; same order of magnitude.
}

TEST_F(FunctionalTest, ObsExtractionLimitationReproduced) {
  // §7.3: without extracting prophecy-free observations into the path
  // condition, the encoded push_front_node precondition (len < usize::MAX)
  // is invisible and the overflow obligation fails — the paper's reported
  // limitation. Our extension (ObsExtraction) is what makes E2 pass above.
  auto Lib2 = frontend::loadModule(FunctionalModule);
  Lib2->Auto.ObsExtraction = false;
  engine::VerifEnv Env = Lib2->env();
  engine::Verifier V(Env);
  engine::VerifyReport R = V.verifyFunction("LinkedList::push_front_node");
  EXPECT_FALSE(R.Ok);
  ASSERT_FALSE(R.Errors.empty());
  EXPECT_NE(R.Errors.front().find("overflow"), std::string::npos);
}

} // namespace

namespace {

TEST(FunctionalExtensionTest, FrontMutPartialFunctionalSpec) {
  // §6: "We are not yet able to verify the functional correctness
  // specification for front_mut" — the enhanced (prophecy-aware)
  // extraction of §7.1 was designed but unimplemented. Ours is
  // implemented, and verifies the partial contract of StdSpecs.cpp:
  // None iff the list is empty (with both current and final models empty),
  // Some implies non-empty.
  auto Lib = frontend::loadModule(FunctionalModule);
  engine::VerifEnv Env = Lib->env();
  engine::Verifier V(Env);
  engine::VerifyReport R = V.verifyFunction("LinkedList::front_mut");
  EXPECT_TRUE(R.Ok) << (R.Errors.empty() ? "" : R.Errors.front());
  EXPECT_GE(R.PathsCompleted, 2u);
  const gilsonite::Spec *S = Lib->Specs.lookup("LinkedList::front_mut");
  ASSERT_NE(S, nullptr);
  EXPECT_NE(S->Doc.find("Pearlite"), std::string::npos);
}

} // namespace

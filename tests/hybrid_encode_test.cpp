//===- tests/hybrid_encode_test.cpp - The §5.4 encoding schema --------------===//

#include "frontend/Corpus.h"
#include "hybrid/Driver.h"
#include "hybrid/Encode.h"

#include <gtest/gtest.h>

using namespace gilr;
using namespace gilr::gilsonite;

namespace {

const char *const SafetyModule = GILR_CORPUS_DIR "/linkedlist_safety.gilr";

class EncodeTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    Lib = frontend::loadModule(SafetyModule).release();
  }
  static void TearDownTestSuite() {
    delete Lib;
    Lib = nullptr;
  }
  static frontend::Module *Lib;

  Outcome<Spec> encode(const std::string &Name) {
    return hybrid::encodePearliteSpec(*Lib->Contracts.lookup(Name),
                                      *Lib->Prog.lookup(Name),
                                      *Lib->Ownables);
  }
};

frontend::Module *EncodeTest::Lib = nullptr;

TEST_F(EncodeTest, SchemaShapeForPopFront) {
  // §5.4: { [κ]_q * own(self, m_self, κ) * <P> } f { ∃m_ret.
  //        own(ret, m_ret, κ) * <Q> }.
  Outcome<Spec> S = encode("LinkedList::pop_front");
  ASSERT_TRUE(S.ok()) << S.error();
  std::string Pre = S.value().Pre->str();
  std::string Post = S.value().Post->str();
  EXPECT_NE(Pre.find("['a]_'q"), std::string::npos);
  EXPECT_NE(Pre.find("own$&mut LinkedList<T>(self, m$self, 'a)"),
            std::string::npos);
  EXPECT_NE(Post.find("own$Option<T>(ret, m$ret, 'a)"), std::string::npos);
  // The contract lands inside an observation (prophetic truth).
  EXPECT_NE(Post.find("<("), std::string::npos);
  // The prophetic ^self elaborates to the second projection of the pair.
  EXPECT_NE(Post.find("m$self.1"), std::string::npos);
}

TEST_F(EncodeTest, PreconditionBecomesObservation) {
  Outcome<Spec> S = encode("LinkedList::push_front_node");
  ASSERT_TRUE(S.ok());
  std::string Pre = S.value().Pre->str();
  // self@.len() < usize::MAX, over the representation.
  EXPECT_NE(Pre.find("len"), std::string::npos);
  EXPECT_NE(Pre.find("<("), std::string::npos); // Observation brackets.
}

TEST_F(EncodeTest, SpecVarsCoverLifetimeFractionAndModels) {
  Outcome<Spec> S = encode("LinkedList::push_front");
  ASSERT_TRUE(S.ok());
  std::vector<std::string> Names;
  for (const Binder &B : S.value().SpecVars)
    Names.push_back(B.Name);
  EXPECT_NE(std::find(Names.begin(), Names.end(), "'a"), Names.end());
  EXPECT_NE(std::find(Names.begin(), Names.end(), "'q"), Names.end());
  EXPECT_NE(std::find(Names.begin(), Names.end(), "m$self"), Names.end());
  EXPECT_NE(std::find(Names.begin(), Names.end(), "m$x"), Names.end());
}

TEST_F(EncodeTest, UnitReturnGetsNoOwnership) {
  Outcome<Spec> S = encode("LinkedList::push_front");
  ASSERT_TRUE(S.ok());
  EXPECT_EQ(S.value().Post->str().find("own$()"), std::string::npos);
}

TEST_F(EncodeTest, ArityMismatchIsRejected) {
  // A contract whose parameter list does not match the RMIR signature.
  creusot::PearliteSpec Bad;
  Bad.Func = "LinkedList::push_front";
  Bad.Params = {{"self", true}}; // Missing x.
  Outcome<Spec> S = hybrid::encodePearliteSpec(
      Bad, *Lib->Prog.lookup("LinkedList::push_front"), *Lib->Ownables);
  EXPECT_TRUE(S.failed());
}

TEST_F(EncodeTest, DriverReplacesRegisteredSpec) {
  auto Lib2 = frontend::loadModule(SafetyModule);
  engine::VerifEnv Env = Lib2->env();
  hybrid::HybridDriver Driver(Env, Lib2->Contracts);
  const Spec *Before = Lib2->Specs.lookup("LinkedList::pop_front_node");
  ASSERT_NE(Before, nullptr);
  EXPECT_NE(Before->Doc.find("show_safety"), std::string::npos);
  ASSERT_TRUE(Driver.encodeAndRegister("LinkedList::pop_front_node").ok());
  const Spec *After = Lib2->Specs.lookup("LinkedList::pop_front_node");
  ASSERT_NE(After, nullptr);
  EXPECT_NE(After->Doc.find("Pearlite"), std::string::npos);
}

TEST_F(EncodeTest, DriverRejectsUnknownFunctions) {
  engine::VerifEnv Env = Lib->env();
  hybrid::HybridDriver Driver(Env, Lib->Contracts);
  EXPECT_TRUE(Driver.encodeAndRegister("LinkedList::reverse").failed());
}

} // namespace

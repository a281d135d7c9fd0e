//===- tests/stack_test.cpp - The second case study end-to-end --------------===//
//
// Type safety and functional correctness of the singly-linked Stack,
// showing the pipeline generalises beyond the paper's LinkedList: the same
// ownership-predicate discipline, borrow automation and §5.4 contract
// encoding apply unchanged.
//
//===----------------------------------------------------------------------===//

#include "engine/Verifier.h"
#include "frontend/Corpus.h"

#include <gtest/gtest.h>

using namespace gilr;

namespace {

class StackSafetyTest : public ::testing::TestWithParam<std::string> {
protected:
  static void SetUpTestSuite() {
    Lib = frontend::loadModule(GILR_CORPUS_DIR "/stack_safety.gilr")
              .release();
  }
  static void TearDownTestSuite() {
    delete Lib;
    Lib = nullptr;
  }
  static frontend::Module *Lib;
};

frontend::Module *StackSafetyTest::Lib = nullptr;

TEST_P(StackSafetyTest, VerifiesTypeSafety) {
  engine::VerifEnv Env = Lib->env();
  engine::Verifier V(Env);
  engine::VerifyReport R = V.verifyFunction(GetParam());
  EXPECT_TRUE(R.Ok) << GetParam() << ": "
                    << (R.Errors.empty() ? "" : R.Errors.front());
  EXPECT_GE(R.PathsCompleted, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Functions, StackSafetyTest,
    ::testing::Values("Stack::new", "Stack::push", "Stack::pop",
                      "Stack::peek_mut", "Stack::is_empty"),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param.substr(Info.param.find("::") + 2);
    });

class StackFunctionalTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    Lib = frontend::loadModule(GILR_CORPUS_DIR "/stack_functional.gilr")
              .release();
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

frontend::Module *StackFunctionalTest::Lib = nullptr;

TEST_F(StackFunctionalTest, New) {
  engine::VerifyReport R = verify("Stack::new");
  EXPECT_TRUE(R.Ok) << (R.Errors.empty() ? "" : R.Errors.front());
}

TEST_F(StackFunctionalTest, Push) {
  engine::VerifyReport R = verify("Stack::push");
  EXPECT_TRUE(R.Ok) << (R.Errors.empty() ? "" : R.Errors.front());
}

TEST_F(StackFunctionalTest, Pop) {
  engine::VerifyReport R = verify("Stack::pop");
  EXPECT_TRUE(R.Ok) << (R.Errors.empty() ? "" : R.Errors.front());
  EXPECT_GE(R.PathsCompleted, 2u);
}

TEST_F(StackFunctionalTest, SafeClientAgainstStackContracts) {
  // The hybrid split works for the new library too: a Creusot-side client
  // of the Stack contracts.
  creusot::SafeFn F;
  F.Name = "stack_client";
  auto call = [](std::string Callee, std::vector<std::string> Args,
                 std::vector<bool> Refs, std::string Dest = "") {
    creusot::SafeStmt S;
    S.Kind = creusot::SafeStmt::Call;
    S.Callee = std::move(Callee);
    S.Args = std::move(Args);
    S.ByMutRef = std::move(Refs);
    S.Dest = std::move(Dest);
    return S;
  };
  auto let = [](std::string Dest, creusot::PTermP T) {
    creusot::SafeStmt S;
    S.Kind = creusot::SafeStmt::Let;
    S.Dest = std::move(Dest);
    S.Term = std::move(T);
    return S;
  };
  auto check = [](creusot::PTermP T) {
    creusot::SafeStmt S;
    S.Kind = creusot::SafeStmt::Assert;
    S.Term = std::move(T);
    return S;
  };
  using namespace creusot;
  F.Body = {call("Stack::new", {}, {}, "s"),
            let("a", pInt(5)),
            call("Stack::push", {"s", "a"}, {true, false}),
            call("Stack::pop", {"s"}, {true}, "r"),
            check(pEq(pVar("r"), pSome(pInt(5)))),
            check(pEq(pVar("s"), pSeqEmpty()))};
  creusot::SafeVerifier SV(Lib->Contracts, Lib->Solv);
  creusot::SafeReport R = SV.verify(F);
  EXPECT_TRUE(R.Ok) << (R.Errors.empty() ? "" : R.Errors.front());
}

} // namespace

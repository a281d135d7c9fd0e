//===- tests/vec_test.cpp - Laid-out node case study (Fig. 5) ---------------===//

#include "engine/Verifier.h"
#include "frontend/Corpus.h"

#include <gtest/gtest.h>

using namespace gilr;

namespace {

const char *const VecModule = GILR_CORPUS_DIR "/vec.gilr";

class VecTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    Lib = frontend::loadModule(VecModule).release();
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

frontend::Module *VecTest::Lib = nullptr;

TEST_F(VecTest, PushRaw) {
  // Fig. 5 end-to-end: write at offset len into the uninitialised range,
  // postcondition reassembles [0, len+1) as s ++ [x].
  engine::VerifyReport R = verify("Vec::push_raw");
  EXPECT_TRUE(R.Ok) << (R.Errors.empty() ? "" : R.Errors.front());
}

TEST_F(VecTest, GetRaw) {
  engine::VerifyReport R = verify("Vec::get_raw");
  EXPECT_TRUE(R.Ok) << (R.Errors.empty() ? "" : R.Errors.front());
}

TEST_F(VecTest, SetRaw) {
  engine::VerifyReport R = verify("Vec::set_raw");
  EXPECT_TRUE(R.Ok) << (R.Errors.empty() ? "" : R.Errors.front());
}

TEST_F(VecTest, AllVerifyQuickly) {
  engine::VerifEnv Env = Lib->env();
  engine::Verifier V(Env);
  double Total = 0.0;
  for (const std::string &Name : Lib->verifyFuncs()) {
    engine::VerifyReport R = V.verifyFunction(Name);
    EXPECT_TRUE(R.Ok) << Name;
    Total += R.Seconds;
  }
  EXPECT_LT(Total, 30.0);
}

} // namespace

namespace {

TEST(VecMoveTest, PopRawDeinitialisesTheSlot) {
  auto Lib = frontend::loadModule(VecModule);
  engine::VerifEnv Env = Lib->env();
  engine::Verifier V(Env);
  engine::VerifyReport R = V.verifyFunction("Vec::pop_raw");
  EXPECT_TRUE(R.Ok) << (R.Errors.empty() ? "" : R.Errors.front());
}

} // namespace

//===- tests/hybrid_test.cpp - The hybrid approach end-to-end (§2.1, H1) ----===//
//
// Creusot-side verification of safe clients against the axiomatised
// Pearlite contracts, combined with Gillian-Rust-side verification of the
// unsafe implementations of the *same* contracts — Fig. 1's division of
// labour.
//
//===----------------------------------------------------------------------===//

#include "frontend/Corpus.h"
#include "hybrid/Driver.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

using namespace gilr;

namespace {

class HybridTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    Lib = frontend::loadModule(GILR_CORPUS_DIR "/linkedlist_functional.gilr",
                               frontend::chainClientText(6))
              .release();
  }
  static void TearDownTestSuite() {
    delete Lib;
    Lib = nullptr;
  }
  static frontend::Module *Lib;
};

frontend::Module *HybridTest::Lib = nullptr;

TEST_F(HybridTest, SafeClientsVerify) {
  creusot::SafeVerifier SV(Lib->Contracts, Lib->Solv);
  for (const creusot::SafeFn &Client : Lib->verifyClients()) {
    creusot::SafeReport R = SV.verify(Client);
    EXPECT_TRUE(R.Ok) << Client.Name << ": "
                      << (R.Errors.empty() ? "" : R.Errors.front());
    EXPECT_FALSE(R.Obligations.empty());
  }
}

TEST_F(HybridTest, MissingPreconditionFailsOnSafeSide) {
  // Pushing onto a list of unknown length cannot discharge the
  // len < usize::MAX precondition: the Creusot side must reject it.
  auto Bad = frontend::loadModule(GILR_CORPUS_DIR "/clients_bad.gilr");
  creusot::SafeVerifier SV(Bad->Contracts, Bad->Solv);
  creusot::SafeReport R =
      SV.verify(*Bad->lookupClient("client_overflow_guard"));
  EXPECT_FALSE(R.Ok);
  ASSERT_FALSE(R.Errors.empty());
  EXPECT_NE(R.Errors.front().find("pre of"), std::string::npos);
}

TEST_F(HybridTest, FullHybridRun) {
  engine::VerifEnv Env = Lib->env();
  hybrid::HybridDriver Driver(Env, Lib->Contracts);
  hybrid::HybridReport R =
      Driver.run(Lib->verifyFuncs(), Lib->verifyClients());
  for (const engine::VerifyReport &U : R.UnsafeSide)
    EXPECT_TRUE(U.Ok) << U.Func << ": "
                      << (U.Errors.empty() ? "" : U.Errors.front());
  for (const creusot::SafeReport &C : R.SafeSide)
    EXPECT_TRUE(C.Ok) << C.Func;
  EXPECT_TRUE(R.ok());
}

TEST_F(HybridTest, ChainClientScales) {
  creusot::SafeVerifier SV(Lib->Contracts, Lib->Solv);
  creusot::SafeReport R = SV.verify(*Lib->lookupClient("client_chain_6"));
  EXPECT_TRUE(R.Ok) << (R.Errors.empty() ? "" : R.Errors.front());
  // 6 pushes with preconditions + 6 asserted pops.
  EXPECT_GE(R.Obligations.size(), 12u);
}

TEST_F(HybridTest, TracedProofEmitsConsumeAndSolverSpans) {
  // A LinkedList proof under tracing must show nonzero consume and solver
  // phase aggregates (the telemetry layer's end-to-end contract), and the
  // machine-readable report must reflect the solver work.
  trace::Options O;
  O.M = trace::Mode::Text;
  O.TraceFile.clear();
  O.StatsFile.clear();
  trace::configure(O);
  trace::reset();

  engine::VerifEnv Env = Lib->env();
  engine::Verifier V(Env);
  engine::VerifyReport R = V.verifyFunction("LinkedList::push_front_node");
  EXPECT_TRUE(R.Ok);

  uint64_t ConsumeNanos = 0, SolverCount = 0;
  for (const trace::PhaseStat &P : trace::phases()) {
    if (P.Key.rfind("consume/", 0) == 0)
      ConsumeNanos += P.Nanos;
    if (P.Key.rfind("solver/", 0) == 0)
      SolverCount += P.Count;
  }
  EXPECT_GT(ConsumeNanos, 0u);
  EXPECT_GT(SolverCount, 0u);

  // The per-function delta attributes the solver work and phase breakdown.
  EXPECT_GT(R.Solver.EntailQueries, 0u);
  EXPECT_FALSE(R.Phases.empty());

  hybrid::HybridReport H;
  H.UnsafeSide.push_back(R);
  std::string Json = H.renderJson();
  EXPECT_NE(Json.find("\"entail_queries\""), std::string::npos);
  EXPECT_NE(Json.find("push_front_node"), std::string::npos);
  EXPECT_NE(H.summaryText().find("entailments"), std::string::npos);

  // Restore the default (disabled) mode for the remaining tests.
  trace::Options Off;
  trace::configure(Off);
  trace::reset();
}

TEST_F(HybridTest, SafeSideSeesOnlyModels) {
  // The Creusot side never mentions heap assertions: the contracts are
  // first-order Pearlite (Fig. 1 left).
  const creusot::PearliteSpec *S =
      Lib->Contracts.lookup("LinkedList::pop_front");
  ASSERT_NE(S, nullptr);
  ASSERT_NE(S->Post, nullptr);
  std::string Text = S->Post->str();
  EXPECT_EQ(Text.find("|->"), std::string::npos);
  EXPECT_NE(Text.find("^self"), std::string::npos); // Prophetic final value.
}

} // namespace

//===- bench/bench_hybrid.cpp - H1: the hybrid split at work (§2.1) ---------===//
//
// Scaling of the Creusot-side client verification (pure, SMT-only) next to
// the Gillian-Rust-side implementation verification (separation logic):
// the division of labour that motivates the hybrid approach.
//
//===----------------------------------------------------------------------===//

#include "frontend/Corpus.h"
#include "hybrid/Driver.h"
#include "support/Trace.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace gilr;

static const char *const E2Module =
    GILR_CORPUS_DIR "/linkedlist_functional.gilr";

static void printTable() {
  auto Lib = frontend::loadModule(E2Module);
  engine::VerifEnv Env = Lib->env();
  hybrid::HybridDriver Driver(Env, Lib->Contracts);
  hybrid::HybridReport R =
      Driver.run(Lib->verifyFuncs(), Lib->verifyClients());

  std::printf("\n=== H1: hybrid verification (Fig. 1's division of labour) "
              "===\n");
  std::printf("-- Gillian-Rust side (unsafe implementations) --\n");
  for (const engine::VerifyReport &U : R.UnsafeSide)
    std::printf("  %-32s %-6s %8.4fs\n", U.Func.c_str(),
                U.Ok ? "ok" : "FAIL", U.Seconds);
  std::printf("-- Creusot side (safe clients, no separation logic) --\n");
  for (const creusot::SafeReport &C : R.SafeSide)
    std::printf("  %-32s %-6s %8.4fs  (%zu obligations)\n", C.Func.c_str(),
                C.Ok ? "ok" : "FAIL", C.Seconds, C.Obligations.size());
  std::printf("\n");
}

static void BM_SafeClient_Chain(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  auto Lib = frontend::loadModule(E2Module, frontend::chainClientText(N));
  const creusot::SafeFn &Client =
      *Lib->lookupClient("client_chain_" + std::to_string(N));
  for (auto _ : State) {
    creusot::SafeVerifier SV(Lib->Contracts, Lib->Solv);
    creusot::SafeReport R = SV.verify(Client);
    if (!R.Ok)
      State.SkipWithError("client verification failed");
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_SafeClient_Chain)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

static void BM_UnsafeSide_PopFrontNode(benchmark::State &State) {
  auto Lib = frontend::loadModule(E2Module);
  for (auto _ : State) {
    engine::VerifEnv Env = Lib->env();
    engine::Verifier V(Env);
    auto R = V.verifyFunction("LinkedList::pop_front_node");
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_UnsafeSide_PopFrontNode)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  trace::configureFromEnv();
  printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

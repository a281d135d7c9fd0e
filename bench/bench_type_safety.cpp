//===- bench/bench_type_safety.cpp - E1: §6 "Verifying type safety" ---------===//
//
// Regenerates the paper's first evaluation table: per-function and total
// verification time for type safety of LinkedList::{new, push_front,
// pop_front, front_mut}, plus the annotation counts (§6: only front_mut
// needs 2 manually-declared lemmas). Paper total: 0.16 s on a 2019 MacBook
// Pro; the *shape* (sub-second, front_mut the only annotated function) is
// what must reproduce.
//
//===----------------------------------------------------------------------===//

#include "engine/Verifier.h"
#include "frontend/Corpus.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include "support/Trace.h"

using namespace gilr;

static const char *const E1Module =
    GILR_CORPUS_DIR "/linkedlist_safety.gilr";

static void printTable() {
  auto Lib = frontend::loadModule(E1Module);
  engine::VerifEnv Env = Lib->env();
  engine::Verifier V(Env);

  std::printf("\n=== E1: Type safety of LinkedList (§6) ===\n");
  std::printf("%-28s %-10s %-10s %-12s %s\n", "function", "verified",
              "time (s)", "annotations", "paper note");
  double Total = 0.0;
  for (const std::string &Name : Lib->verifyFuncs()) {
    engine::VerifyReport R = V.verifyFunction(Name);
    Total += R.Seconds;
    const char *Note =
        Name == "LinkedList::front_mut"
            ? "2 lemmas (extraction + freezing), proofs automatic"
            : "no annotations beyond the safety invariant";
    std::printf("%-28s %-10s %-10.4f %-12u %s\n", Name.c_str(),
                R.Ok ? "yes" : "NO", R.Seconds, R.GhostAnnotations, Note);
  }
  std::printf("%-28s %-10s %-10.4f\n", "total", "", Total);
  std::printf("paper reports: total 0.16 s (MacBook Pro 2019, sequential)\n\n");
}

static void BM_TypeSafety_Function(benchmark::State &State,
                                   const std::string &Name) {
  auto Lib = frontend::loadModule(E1Module);
  for (auto _ : State) {
    engine::VerifEnv Env = Lib->env();
    engine::Verifier V(Env);
    engine::VerifyReport R = V.verifyFunction(Name);
    if (!R.Ok)
      State.SkipWithError("verification failed");
    benchmark::DoNotOptimize(R);
  }
}

static void BM_TypeSafety_Suite(benchmark::State &State) {
  auto Lib = frontend::loadModule(E1Module);
  for (auto _ : State) {
    engine::VerifEnv Env = Lib->env();
    engine::Verifier V(Env);
    for (const std::string &Name : Lib->verifyFuncs()) {
      engine::VerifyReport R = V.verifyFunction(Name);
      if (!R.Ok)
        State.SkipWithError("verification failed");
    }
  }
}
BENCHMARK(BM_TypeSafety_Suite)->Unit(benchmark::kMillisecond);

static void BM_LoadModule(benchmark::State &State) {
  // Loading parses the module and runs the automatic lemma proofs.
  for (auto _ : State) {
    auto Lib = frontend::loadModule(E1Module);
    benchmark::DoNotOptimize(Lib);
  }
}
BENCHMARK(BM_LoadModule)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  gilr::trace::configureFromEnv();
  printTable();
  for (const std::string &Name :
       frontend::loadModule(E1Module)->verifyFuncs())
    benchmark::RegisterBenchmark(("BM_TypeSafety/" + Name).c_str(),
                                 BM_TypeSafety_Function, Name)
        ->Unit(benchmark::kMillisecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

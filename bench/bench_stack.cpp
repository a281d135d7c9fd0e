//===- bench/bench_stack.cpp - The second case study (extension) ------------===//
//
// Not a paper table: the singly-linked Stack shows the pipeline
// generalises. Reported in the same format as E1/E2 for comparison.
//
//===----------------------------------------------------------------------===//

#include "engine/Verifier.h"
#include "frontend/Corpus.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include "support/Trace.h"

using namespace gilr;

static const char *const SafetyModule = GILR_CORPUS_DIR "/stack_safety.gilr";
static const char *const FunctionalModule =
    GILR_CORPUS_DIR "/stack_functional.gilr";

static void printTable() {
  std::printf("\n=== Extension: Stack<T> (singly-linked, raw pointers) "
              "===\n");
  for (bool Safety : {true, false}) {
    auto Lib = frontend::loadModule(Safety ? SafetyModule : FunctionalModule);
    engine::VerifEnv Env = Lib->env();
    engine::Verifier V(Env);
    const char *Title = Safety ? "type safety (#[show_safety])"
                               : "functional (Pearlite encoded)";
    std::printf("-- %s --\n", Title);
    double Total = 0.0;
    std::vector<std::string> Funcs =
        Safety ? Lib->verifyFuncs()
               : std::vector<std::string>{"Stack::new", "Stack::push",
                                          "Stack::pop"};
    for (const std::string &Name : Funcs) {
      engine::VerifyReport R = V.verifyFunction(Name);
      Total += R.Seconds;
      std::printf("  %-24s %-6s %8.4fs  annotations=%u\n", Name.c_str(),
                  R.Ok ? "ok" : "FAIL", R.Seconds, R.GhostAnnotations);
    }
    std::printf("  total: %.4fs\n", Total);
  }
  std::printf("\n");
}

static void BM_Stack_TypeSafetySuite(benchmark::State &State) {
  auto Lib = frontend::loadModule(SafetyModule);
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
BENCHMARK(BM_Stack_TypeSafetySuite)->Unit(benchmark::kMillisecond);

static void BM_Stack_FunctionalPop(benchmark::State &State) {
  auto Lib = frontend::loadModule(FunctionalModule);
  for (auto _ : State) {
    engine::VerifEnv Env = Lib->env();
    engine::Verifier V(Env);
    auto R = V.verifyFunction("Stack::pop");
    if (!R.Ok)
      State.SkipWithError("verification failed");
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_Stack_FunctionalPop)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  gilr::trace::configureFromEnv();
  printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

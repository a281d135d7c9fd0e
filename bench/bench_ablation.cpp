//===- bench/bench_ablation.cpp - A1: what the automation buys (§4.2) -------===//
//
// The paper's central automation claim: once the safety invariant is
// specified, borrow opening/closing and predicate folding are automatic.
// This harness turns each automation layer off and reports which proofs
// survive — the ablation DESIGN.md calls A1. With AutoBorrow off, the
// pop_front proof fails exactly where VeriFast-style manual borrow
// management would demand an annotation (§8 comparison).
//
//===----------------------------------------------------------------------===//

#include "engine/Verifier.h"
#include "frontend/Corpus.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include "support/Trace.h"

using namespace gilr;

namespace {

struct Config {
  const char *Name;
  bool AutoUnfold;
  bool AutoBorrow;
  bool AutoClose;
};

const Config Configs[] = {
    {"full automation", true, true, true},
    {"no auto-unfold", false, true, true},
    {"no auto-borrow", true, false, true},
    {"no auto-close", true, true, false},
};

} // namespace

static void printTable() {
  // The node-level functions manipulate the heap directly, so they expose
  // each automation layer; the wrappers go through callee specs.
  // replace_front carries no mutref_auto_resolve! ghost, so it is the
  // function that genuinely depends on automatic borrow closing; the node
  // functions and front_mut close their borrows explicitly via the tactic.
  std::vector<std::string> Funcs = {
      "LinkedList::new", "LinkedList::push_front_node",
      "LinkedList::pop_front_node", "LinkedList::front_mut",
      "LinkedList::replace_front"};
  std::printf("\n=== A1: automation ablation on LinkedList type safety "
              "===\n");
  std::printf("%-18s", "configuration");
  for (const std::string &Name : Funcs)
    std::printf(" %-16s", Name.substr(Name.find("::") + 2).c_str());
  std::printf("\n");

  for (const Config &C : Configs) {
    auto Lib = frontend::loadModule(GILR_CORPUS_DIR "/linkedlist_safety.gilr");
    Lib->Auto.AutoUnfold = C.AutoUnfold;
    Lib->Auto.AutoBorrow = C.AutoBorrow;
    Lib->Auto.AutoCloseAtReturn = C.AutoClose;
    engine::VerifEnv Env = Lib->env();
    engine::Verifier V(Env);
    std::printf("%-18s", C.Name);
    for (const std::string &Name : Funcs) {
      engine::VerifyReport R = V.verifyFunction(Name);
      std::printf(" %-16s", R.Ok ? "ok" : "FAILS");
    }
    std::printf("\n");
  }
  std::printf("=> the guarded-predicate encoding (§4.2) is what lets the "
              "existing fold/unfold heuristics open borrows: without it "
              "(no auto-borrow) the pointer-manipulating functions need "
              "manual gunfold/gfold annotations, as in VeriFast (§8).\n\n");
}

static void BM_FullAutomation(benchmark::State &State) {
  auto Lib = frontend::loadModule(GILR_CORPUS_DIR "/linkedlist_safety.gilr");
  for (auto _ : State) {
    engine::VerifEnv Env = Lib->env();
    engine::Verifier V(Env);
    auto R = V.verifyFunction("LinkedList::pop_front_node");
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_FullAutomation)->Unit(benchmark::kMillisecond);

static void BM_ObsExtractionOnOff(benchmark::State &State) {
  // A3: §7.3 observation extraction (our extension) on/off.
  bool On = State.range(0) != 0;
  auto Lib =
      frontend::loadModule(GILR_CORPUS_DIR "/linkedlist_functional.gilr");
  Lib->Auto.ObsExtraction = On;
  for (auto _ : State) {
    engine::VerifEnv Env = Lib->env();
    engine::Verifier V(Env);
    auto R = V.verifyFunction("LinkedList::push_front_node");
    if (R.Ok != On)
      State.SkipWithError("unexpected outcome");
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_ObsExtractionOnOff)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  gilr::trace::configureFromEnv();
  printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

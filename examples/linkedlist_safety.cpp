//===- examples/linkedlist_safety.cpp - The paper's E1 experiment -----------===//
//
// Verifies type safety of the LinkedList module (§6): new, push_front,
// pop_front and front_mut under #[show_safety] specs, printing the per-
// function results the way the paper reports them.
//
//===----------------------------------------------------------------------===//

#include "engine/Verifier.h"
#include "frontend/Corpus.h"
#include "rmir/Printer.h"

#include <cstdio>
#include "support/Trace.h"

using namespace gilr;

int main() {
  gilr::trace::configureFromEnv();
  std::printf("Loading the LinkedList module (types, dllSeg, Ownable "
              "impls, lemmas)...\n");
  auto Lib = frontend::loadModule(GILR_CORPUS_DIR "/linkedlist_safety.gilr");

  std::printf("\n== The code under verification (RMIR) ==\n%s\n",
              rmir::functionToString(
                  *Lib->Prog.lookup("LinkedList::pop_front_node"))
                  .c_str());

  engine::VerifEnv Env = Lib->env();
  engine::Verifier V(Env);

  std::printf("== Type safety (#[show_safety], RustBelt-style) ==\n");
  double Total = 0.0;
  bool AllOk = true;
  for (const auto &[Name, F] : Lib->Prog.Funcs) {
    engine::VerifyReport R = V.verifyFunction(Name);
    Total += R.Seconds;
    AllOk &= R.Ok;
    std::printf("  %-32s %-8s %7.4fs  paths=%u  annotations=%u\n",
                Name.c_str(), R.Ok ? "OK" : "FAIL", R.Seconds,
                R.PathsCompleted, R.GhostAnnotations);
    for (const std::string &E : R.Errors)
      std::printf("    error: %s\n", E.c_str());
  }
  std::printf("  total: %.4fs (paper reports 0.16s for the 4-function "
              "subset on a 2019 laptop)\n",
              Total);
  return AllOk ? 0 : 1;
}

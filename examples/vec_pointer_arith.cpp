//===- examples/vec_pointer_arith.cpp - Laid-out nodes (Fig. 5) -------------===//
//
// Verifies the raw-buffer Vec operations whose proofs exercise laid-out
// node splitting, overwriting and reassembly — the pointer-arithmetic side
// of the hybrid heap (§3.2).
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
  auto Lib = frontend::loadModule(GILR_CORPUS_DIR "/vec.gilr");

  std::printf("== The Fig. 5 write, as RMIR ==\n%s\n",
              rmir::functionToString(*Lib->Prog.lookup("Vec::push_raw"))
                  .c_str());

  engine::VerifEnv Env = Lib->env();
  engine::Verifier V(Env);
  bool AllOk = true;
  for (const std::string &Name : Lib->verifyFuncs()) {
    const gilsonite::Spec *S = Lib->Specs.lookup(Name);
    std::printf("== %s ==\npre:  %s\npost: %s\n", Name.c_str(),
                S->Pre->str().c_str(), S->Post->str().c_str());
    engine::VerifyReport R = V.verifyFunction(Name);
    AllOk &= R.Ok;
    std::printf("--> %s in %.4fs\n\n", R.Ok ? "VERIFIED" : "FAILED",
                R.Seconds);
    for (const std::string &E : R.Errors)
      std::printf("    error: %s\n", E.c_str());
  }
  return AllOk ? 0 : 1;
}

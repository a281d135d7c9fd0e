//===- examples/hybrid_client.cpp - The hybrid approach end-to-end ----------===//
//
// §2.1 in action: safe client code is verified by the Creusot-side
// verifier against Pearlite contracts; the unsafe LinkedList implementation
// is verified against the *same* contracts by the Gillian-Rust side after
// the systematic §5.4 encoding.
//
//===----------------------------------------------------------------------===//

#include "frontend/Corpus.h"
#include "hybrid/Driver.h"

#include <cstdio>
#include "support/Trace.h"

using namespace gilr;

int main() {
  gilr::trace::configureFromEnv();
  auto Lib =
      frontend::loadModule(GILR_CORPUS_DIR "/linkedlist_functional.gilr");
  engine::VerifEnv Env = Lib->env();
  hybrid::HybridDriver Driver(Env, Lib->Contracts);

  std::printf("== Shared contracts (Pearlite) ==\n");
  for (const auto &[Name, S] : Lib->Contracts.all())
    std::printf("  %-32s %s\n", Name.c_str(), S.Doc.c_str());

  std::printf("\n== Gillian-Rust side: verifying the unsafe "
              "implementations ==\n");
  hybrid::HybridReport R =
      Driver.run(Lib->verifyFuncs(), Lib->verifyClients());
  for (const engine::VerifyReport &U : R.UnsafeSide) {
    std::printf("  %-32s %-8s %7.4fs\n", U.Func.c_str(),
                U.Ok ? "OK" : "FAIL", U.Seconds);
    for (const std::string &E : U.Errors)
      std::printf("    error: %s\n", E.c_str());
  }

  std::printf("\n== Creusot side: verifying the safe clients ==\n");
  for (const creusot::SafeReport &C : R.SafeSide) {
    std::printf("  %-32s %-8s %7.4fs  obligations=%zu\n", C.Func.c_str(),
                C.Ok ? "OK" : "FAIL", C.Seconds, C.Obligations.size());
    for (const std::string &E : C.Errors)
      std::printf("    error: %s\n", E.c_str());
  }

  std::printf("\n== Negative check: a client missing a precondition ==\n");
  auto BadLib = frontend::loadModule(GILR_CORPUS_DIR "/clients_bad.gilr");
  creusot::SafeVerifier SV(BadLib->Contracts, BadLib->Solv);
  creusot::SafeReport Bad =
      SV.verify(*BadLib->lookupClient("client_overflow_guard"));
  std::printf("  %-32s %s (expected FAIL)\n", Bad.Func.c_str(),
              Bad.Ok ? "OK?!" : "FAIL");

  bool Success = R.ok() && !Bad.Ok;
  std::printf("\nhybrid pipeline: %s\n", Success ? "VERIFIED" : "BROKEN");
  return Success ? 0 : 1;
}

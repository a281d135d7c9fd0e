//===- frontend/Corpus.cpp -------------------------------------------------===//

#include "frontend/Corpus.h"

#include "frontend/Frontend.h"
#include "support/Diagnostics.h"
#include "support/Files.h"

using namespace gilr;
using namespace gilr::frontend;

std::unique_ptr<Module> gilr::frontend::loadModule(const std::string &Path,
                                                   const std::string &Extra) {
  std::string Text;
  if (!files::readFile(Path, Text, ".gilr module"))
    fatalError("cannot read '" + Path + "'");
  ParseResult R = parseString(Path, Text + Extra);
  std::string Msgs;
  for (const analysis::Diagnostic &D : R.Diags)
    Msgs += "\n" + D.str();
  if (!R.ok() || !Msgs.empty())
    fatalError("cannot load '" + Path + "':" + Msgs);
  for (const std::string &E : R.Mod->registerLemmas())
    Msgs += "\n" + E;
  if (!Msgs.empty())
    fatalError("lemmas of '" + Path + "' failed:" + Msgs);
  return std::move(R.Mod);
}

std::string gilr::frontend::chainClientText(unsigned N) {
  std::string S = "\nclient client_chain_" + std::to_string(N) + " () {\n";
  S += "  call l = |LinkedList::new|();\n";
  for (unsigned I = 0; I != N; ++I) {
    std::string V = "v" + std::to_string(I);
    S += "  let " + V + " = " + std::to_string(I) + ";\n";
    S += "  call |LinkedList::push_front|(mut l, " + V + ");\n";
  }
  for (unsigned I = N; I != 0; --I) {
    std::string R = "r" + std::to_string(I);
    S += "  call " + R + " = |LinkedList::pop_front|(mut l);\n";
    S += "  assert (" + R + " == Some(" + std::to_string(I - 1) + "));\n";
  }
  return S + "}\n";
}

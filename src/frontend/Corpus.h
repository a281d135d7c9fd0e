//===- frontend/Corpus.h - Loading the case-study corpus --------------------===//
///
/// \file
/// The case studies (LinkedList, Stack, Vec and the safe clients) exist only
/// as the hand-written .gilr modules in examples/corpus/. Tests, benches and
/// examples enter them through \c loadModule: parsing plus
/// \c Module::registerLemmas, with every diagnostic treated as fatal, since
/// a corpus module that does not load is a broken checkout, not a result.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_FRONTEND_CORPUS_H
#define GILR_FRONTEND_CORPUS_H

#include "frontend/Module.h"

#include <memory>
#include <string>

namespace gilr {
namespace frontend {

/// Parses the module at \p Path, with \p Extra appended to its text, and
/// registers its lemmas. Any parse diagnostic or failed lemma is printed
/// and aborts the process.
std::unique_ptr<Module> loadModule(const std::string &Path,
                                   const std::string &Extra = "");

/// The .gilr text of `client client_chain_N`, a LinkedList client that
/// pushes 0..N-1 and pops them back, asserting each popped value (the H1
/// scaling workload). Append it to linkedlist_functional.gilr.
std::string chainClientText(unsigned N);

} // namespace frontend
} // namespace gilr

#endif // GILR_FRONTEND_CORPUS_H

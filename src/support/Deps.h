//===- support/Deps.h - Proof dependency recording hook --------------------===//
///
/// \file
/// The thread-local dependency hook the incremental-verification layer
/// (src/incr/) uses to learn what a proof *actually consulted*. The lookup
/// paths of the verification tables (specs, predicates, lemmas, Pearlite
/// contracts) and the verifiers' function-body accesses call \c note; when
/// an \c incr::DepRecorder is installed on the current thread, the named
/// entity joins the running obligation's dependency set. With no sink
/// installed (the default, and always the case outside an incremental run)
/// a note is a single thread-local load and branch, so the hook costs
/// nothing on the normal path.
///
/// This lives in support/ — below every layer that needs to emit notes — so
/// that engine/, creusot/ and gilsonite/ do not depend on the incremental
/// subsystem that consumes them.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_SUPPORT_DEPS_H
#define GILR_SUPPORT_DEPS_H

#include <cstdint>
#include <string>

namespace gilr {
namespace deps {

/// The namespaces of dependable entities. Values are part of the on-disk
/// proof-record format (incr/Record.h): append only, never renumber.
enum class Kind : uint8_t {
  Function = 0, ///< An RMIR function body.
  Spec = 1,     ///< A Gilsonite spec (gilsonite::SpecTable).
  Pred = 2,     ///< A predicate declaration (gilsonite::PredTable).
  Lemma = 3,    ///< A registered lemma (engine::LemmaTable).
  Contract = 4, ///< A Pearlite contract (creusot::PearliteSpecTable).
};

/// Returns a printable name for \p K.
const char *kindName(Kind K);

/// Receiver of dependency notes. Implementations are installed per thread
/// (a proof job runs on exactly one worker), so they need no locking of
/// their own for notes.
class Sink {
public:
  virtual ~Sink() = default;
  virtual void note(Kind K, const std::string &Name) = 0;
};

/// Installs \p S as the calling thread's dependency sink (nullptr
/// uninstalls) and returns the previously installed one.
Sink *setSink(Sink *S);

/// The calling thread's installed sink (may be nullptr).
Sink *sink();

/// Notes that the running proof consulted entity (\p K, \p Name). No-op
/// when no sink is installed on this thread.
inline void note(Kind K, const std::string &Name) {
  if (Sink *S = sink())
    S->note(K, Name);
}

} // namespace deps
} // namespace gilr

#endif // GILR_SUPPORT_DEPS_H

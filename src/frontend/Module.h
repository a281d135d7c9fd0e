//===- frontend/Module.h - A parsed .gilr compilation unit -----------------===//
///
/// \file
/// The in-memory result of parsing one textual RMIR module: the RMIR
/// program with its type context, every Gilsonite table (predicates, specs,
/// lemma declarations), the Pearlite contract table, the safe clients, the
/// automation switches, and the verify list. This is the only form in which
/// the case studies (examples/corpus/) enter the system; downstream
/// consumers (analysis, hybrid driver, scheduler, incremental store) run on
/// its tables.
///
/// Lemma declarations are *parsed* into FreezeDecls/ExtractDecls but not
/// registered at parse time: registration runs the hypothesis proofs
/// (engine/Lemma.h), which `gilr check` must not pay for. Call
/// \c registerLemmas() before verifying.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_FRONTEND_MODULE_H
#define GILR_FRONTEND_MODULE_H

#include "creusot/SafeVerifier.h"
#include "engine/Lemma.h"
#include "engine/SymState.h"
#include "gilsonite/Ownable.h"

#include <memory>

namespace gilr {
namespace frontend {

/// One parsed .gilr module. Owns every table VerifEnv references.
/// Non-copyable (the type context interns by address).
struct Module {
  std::string Name; ///< Module name (the file stem).

  rmir::Program Prog;
  gilsonite::PredTable Preds;
  gilsonite::SpecTable Specs;
  engine::LemmaTable Lemmas;
  Solver Solv;
  engine::Automation Auto;
  /// Derives built-in own$ predicates on demand; references Prog.Types and
  /// Preds, hence constructed after them and held by pointer so Module
  /// needs no user-declared move constructor.
  std::unique_ptr<gilsonite::OwnableRegistry> Ownables;

  creusot::PearliteSpecTable Contracts;
  std::vector<creusot::SafeFn> Clients;

  /// Names listed by `verify a, b;` items, in declaration order. Each is
  /// either an RMIR function (unsafe side) or a client (safe side).
  std::vector<std::string> VerifyList;

  /// Parsed lemma declarations, pending registration.
  std::vector<engine::FreezeLemma> FreezeDecls;
  std::vector<engine::ExtractLemma> ExtractDecls;

  Module();
  Module(const Module &) = delete;
  Module &operator=(const Module &) = delete;

  /// The verification environment over this module's tables.
  engine::VerifEnv env();

  /// Registers every declared lemma, running the hypothesis proofs.
  /// Idempotent per declaration order; returns one message per failed
  /// registration (empty = all proved).
  std::vector<std::string> registerLemmas();

  /// Splits \c VerifyList into the unsafe-side function names and the
  /// safe-side clients (resolving against Prog.Funcs / Clients).
  std::vector<std::string> verifyFuncs() const;
  std::vector<creusot::SafeFn> verifyClients() const;

  /// The client named \p Name, or nullptr.
  const creusot::SafeFn *lookupClient(const std::string &Name) const;
};

} // namespace frontend
} // namespace gilr

#endif // GILR_FRONTEND_MODULE_H

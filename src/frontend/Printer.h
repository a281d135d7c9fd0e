//===- frontend/Printer.h - Rendering a module back to .gilr text -----------===//
///
/// \file
/// The inverse of the parser: renders a module as .gilr text that re-parses
/// to a fingerprint-identical module (the round-trip property frontend_test
/// checks over the whole corpus). `gilr fmt` is built on it.
///
/// Printing rules that make the round trip exact:
///  * exists/spec-var binders always carry their sort: `(name Sort)`.
///  * Variables whose sort differs from the reader's bare-atom prediction
///    ('names are Lft, everything else Any) print as `(var name Sort)`.
///  * Names that the plain token rules cannot spell are |...|-quoted.
///  * Function locals are all printed as `let` lines (with `params N;`
///    giving the parameter count), reproducing Locals exactly.
///  * All six automation switches are always printed.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_FRONTEND_PRINTER_H
#define GILR_FRONTEND_PRINTER_H

#include "frontend/Module.h"

namespace gilr {
namespace frontend {

/// Renders \p M as a complete .gilr module.
std::string printModule(const Module &M);

/// Renders one type in .gilr surface syntax (also used by diagnostics in
/// the CLI). Nominal names are |...|-quoted when needed.
std::string printType(rmir::TypeRef T);

/// Renders one expression in the Gilsonite S-expression syntax such that
/// gilsonite::parseExpr rebuilds the identical node.
std::string printExpr(const Expr &E);

/// Renders one assertion such that gilsonite::parseAssertion rebuilds an
/// identical tree.
std::string printAssertion(const gilsonite::AssertionP &A);

/// Renders one Pearlite term such that creusot::parsePearliteTerm rebuilds
/// an identical tree.
std::string printPearlite(const creusot::PTermP &T);

} // namespace frontend
} // namespace gilr

#endif // GILR_FRONTEND_PRINTER_H

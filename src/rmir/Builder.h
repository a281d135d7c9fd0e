//===- rmir/Builder.h - Fluent construction of RMIR functions -------------===//
///
/// \file
/// A small builder API for authoring RMIR functions in C++, used by unit
/// tests, generated bench workloads and the quickstart examples. The case
/// studies themselves are .gilr text (examples/corpus/, frontend/). The
/// builder checks structural invariants eagerly (local indices, block
/// targets) so malformed IR fails at construction time rather than
/// mid-proof.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_RMIR_BUILDER_H
#define GILR_RMIR_BUILDER_H

#include "rmir/Program.h"

namespace gilr {
namespace rmir {

/// Builds one function. Typical usage:
/// \code
///   FunctionBuilder B("len", Types);
///   LocalId SelfL = B.addParam("self", RefTy);
///   B.setReturnType(UsizeTy);
///   BlockId Entry = B.newBlock();
///   B.atBlock(Entry);
///   B.assign(Place(0), Rvalue::use(Operand::copy(
///       Place(SelfL).deref().field(2))));
///   B.ret();
///   Function F = B.finish();
/// \endcode
class FunctionBuilder {
public:
  FunctionBuilder(std::string Name, TyCtx &Types);

  /// Declares a generic type parameter (e.g. "T").
  void addTypeParam(const std::string &Name);
  /// Declares a lifetime parameter (e.g. "'a").
  void addLifetime(const std::string &Name);
  /// Suppresses a pre-verification lint (a "GILR-Exxx"/"GILR-Wxxx" code, or
  /// "all") for this function — the #[allow(...)] of the analysis pass.
  void suppressLint(const std::string &Code);

  /// Adds a parameter local; must be called before any plain local.
  LocalId addParam(const std::string &Name, TypeRef Ty);
  /// Adds a non-parameter local.
  LocalId addLocal(const std::string &Name, TypeRef Ty);
  void setReturnType(TypeRef Ty);

  /// Creates a new (empty) block and returns its id.
  BlockId newBlock();
  /// Directs subsequent statement emission at \p B.
  void atBlock(BlockId B);
  BlockId currentBlock() const { return Current; }

  // Statement emission.
  void assign(Place P, Rvalue R);
  void alloc(Place Dest, TypeRef Ty);
  void free(Operand Ptr, TypeRef Ty);
  void ghost(Ghost G);
  void unfold(const std::string &Pred, std::vector<Operand> Args);
  void fold(const std::string &Pred, std::vector<Operand> Args);
  void gunfold(const std::string &Pred, std::vector<Operand> Args);
  void gfold(const std::string &Pred, std::vector<Operand> Args);
  void applyLemma(const std::string &Lemma, std::vector<Operand> Args);
  void mutrefAutoResolve(Operand Ref);
  void prophecyAutoUpdate(Operand Ref);

  // Terminators.
  void gotoBlock(BlockId B);
  void switchInt(Operand D, std::vector<std::pair<__int128, BlockId>> Arms,
                 BlockId Otherwise);
  /// Convenience for option-like enums: branch on None (0) / Some (1).
  void switchOption(Operand D, BlockId NoneBB, BlockId SomeBB);
  void call(const std::string &Callee, std::vector<Operand> Args, Place Dest,
            BlockId Target, std::vector<TypeRef> TypeArgs = {});
  void ret();
  void unreachable();

  /// Finalises and returns the function (validates all blocks terminated).
  Function finish();

  TyCtx &types() { return Types; }

private:
  BasicBlock &cur();

  Function F;
  TyCtx &Types;
  BlockId Current = 0;
  bool SawNonParamLocal = false;
  std::vector<bool> Terminated;
};

} // namespace rmir
} // namespace gilr

#endif // GILR_RMIR_BUILDER_H

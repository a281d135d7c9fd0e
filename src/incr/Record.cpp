//===- incr/Record.cpp ------------------------------------------------------------===//

#include "incr/Record.h"

#include <cstring>

using namespace gilr;
using namespace gilr::incr;

namespace {

/// Appends fixed-width values to a byte string.
class Writer {
public:
  std::string Out;

  void u8(uint8_t V) { Out.push_back(static_cast<char>(V)); }
  void u32(uint32_t V) { raw(&V, sizeof V); }
  void u64(uint64_t V) { raw(&V, sizeof V); }
  void f64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof Bits);
    u64(Bits);
  }
  void str(const std::string &S) {
    u32(static_cast<uint32_t>(S.size()));
    Out.append(S);
  }

private:
  void raw(const void *P, std::size_t N) {
    Out.append(static_cast<const char *>(P), N);
  }
};

/// Bounds-checked reader over a byte string; every getter returns false
/// once the input is exhausted or malformed.
class Reader {
public:
  Reader(const char *Data, std::size_t N) : Data(Data), End(Data + N) {}
  explicit Reader(const std::string &S) : Reader(S.data(), S.size()) {}

  bool u8(uint8_t &V) {
    if (End - Data < 1)
      return false;
    V = static_cast<uint8_t>(*Data++);
    return true;
  }
  bool u32(uint32_t &V) { return raw(&V, sizeof V); }
  bool u64(uint64_t &V) { return raw(&V, sizeof V); }
  bool f64(double &V) {
    uint64_t Bits;
    if (!u64(Bits))
      return false;
    std::memcpy(&V, &Bits, sizeof V);
    return true;
  }
  bool str(std::string &S) {
    uint32_t N;
    if (!u32(N) || static_cast<std::size_t>(End - Data) < N)
      return false;
    S.assign(Data, N);
    Data += N;
    return true;
  }
  /// A list length. Every element takes at least one byte, so a count
  /// beyond the bytes left is malformed — and must not size an allocation.
  bool count(uint32_t &N) {
    return u32(N) && N <= static_cast<std::size_t>(End - Data);
  }
  bool done() const { return Data == End; }

private:
  bool raw(void *P, std::size_t N) {
    if (static_cast<std::size_t>(End - Data) < N)
      return false;
    std::memcpy(P, Data, N);
    Data += N;
    return true;
  }

  const char *Data;
  const char *End;
};

void writeSolverStats(Writer &W, const SolverStats &S) {
  W.u64(S.SatQueries);
  W.u64(S.EntailQueries);
  W.u64(S.Branches);
  W.u64(S.TheoryChecks);
  W.u64(S.UnknownResults);
  W.u64(S.EntailRepeats);
}

bool readSolverStats(Reader &R, SolverStats &S) {
  uint64_t V[6];
  for (uint64_t &X : V)
    if (!R.u64(X))
      return false;
  S.SatQueries = V[0];
  S.EntailQueries = V[1];
  S.Branches = V[2];
  S.TheoryChecks = V[3];
  S.UnknownResults = V[4];
  S.EntailRepeats = V[5];
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Records
//===----------------------------------------------------------------------===//

namespace {

void writeDeps(Writer &W, const std::vector<StoredDep> &Deps) {
  W.u32(static_cast<uint32_t>(Deps.size()));
  for (const StoredDep &D : Deps) {
    W.u8(static_cast<uint8_t>(D.K));
    W.str(D.Name);
    W.u64(D.Fp);
    // The clause-level signature (incr/SpecDiff.h). Live formulas are not
    // persisted — pure clauses round-trip through their journal text.
    W.u8(D.HasSig ? 1 : 0);
    if (D.HasSig) {
      W.u64(D.Sig.SkeletonFp);
      W.u32(static_cast<uint32_t>(D.Sig.Clauses.size()));
      for (const ClauseSig &C : D.Sig.Clauses) {
        W.u8(static_cast<uint8_t>(C.Role));
        W.u8(C.Pure ? 1 : 0);
        W.u64(C.Fp);
        W.str(C.Text);
      }
    }
  }
}

bool readDeps(Reader &R, std::vector<StoredDep> &Deps) {
  uint32_t NDeps;
  if (!R.count(NDeps))
    return false;
  Deps.clear();
  Deps.reserve(NDeps);
  for (uint32_t I = 0; I != NDeps; ++I) {
    StoredDep D;
    uint8_t K;
    if (!R.u8(K) || K > static_cast<uint8_t>(deps::Kind::Contract) ||
        !R.str(D.Name) || !R.u64(D.Fp))
      return false;
    D.K = static_cast<deps::Kind>(K);
    uint8_t HasSig;
    if (!R.u8(HasSig) || HasSig > 1)
      return false;
    D.HasSig = HasSig != 0;
    if (D.HasSig) {
      uint32_t NClauses;
      if (!R.u64(D.Sig.SkeletonFp) || !R.count(NClauses))
        return false;
      D.Sig.Clauses.reserve(NClauses);
      for (uint32_t J = 0; J != NClauses; ++J) {
        ClauseSig C;
        uint8_t Role, Pure;
        if (!R.u8(Role) ||
            Role > static_cast<uint8_t>(ClauseRole::ContractPost) ||
            !R.u8(Pure) || Pure > 1 || !R.u64(C.Fp) || !R.str(C.Text))
          return false;
        C.Role = static_cast<ClauseRole>(Role);
        C.Pure = Pure != 0;
        D.Sig.Clauses.push_back(std::move(C));
      }
    }
    Deps.push_back(std::move(D));
  }
  return true;
}

bool readSide(Reader &R, Side &S) {
  uint8_t V;
  if (!R.u8(V) || V > static_cast<uint8_t>(Side::Summary))
    return false;
  S = static_cast<Side>(V);
  return true;
}

} // namespace

std::string gilr::incr::encodeObligationRecord(const StoredObligation &Ob) {
  Writer W;
  W.u8(static_cast<uint8_t>(Ob.S));
  W.str(Ob.Name);
  W.u64(Ob.SelfFp);
  W.u64(Ob.ConfigFp);
  writeDeps(W, Ob.Deps);
  W.str(Ob.Blob);
  return std::move(W.Out);
}

bool gilr::incr::decodeObligationRecord(const std::string &Payload,
                                        StoredObligation &Ob) {
  Reader R(Payload);
  return readSide(R, Ob.S) && R.str(Ob.Name) && R.u64(Ob.SelfFp) &&
         R.u64(Ob.ConfigFp) && readDeps(R, Ob.Deps) && R.str(Ob.Blob) &&
         R.done();
}

std::string gilr::incr::encodeStoreIndex(const std::vector<IndexEntry> &Es) {
  Writer W;
  W.u32(static_cast<uint32_t>(Es.size()));
  for (const IndexEntry &E : Es) {
    W.u8(static_cast<uint8_t>(E.S));
    W.str(E.Name);
    W.u64(E.Key.Hi);
    W.u64(E.Key.Lo);
    W.u8(E.Refreshed ? 1 : 0);
    if (E.Refreshed)
      writeDeps(W, E.Deps);
  }
  return std::move(W.Out);
}

bool gilr::incr::decodeStoreIndex(const std::string &Payload,
                                  std::vector<IndexEntry> &Out) {
  Reader R(Payload);
  uint32_t N;
  if (!R.count(N))
    return false;
  Out.clear();
  Out.reserve(N);
  for (uint32_t I = 0; I != N; ++I) {
    IndexEntry E;
    uint8_t Refreshed;
    if (!readSide(R, E.S) || !R.str(E.Name) || !R.u64(E.Key.Hi) ||
        !R.u64(E.Key.Lo) || !R.u8(Refreshed) || Refreshed > 1)
      return false;
    E.Refreshed = Refreshed != 0;
    if (E.Refreshed && !readDeps(R, E.Deps))
      return false;
    Out.push_back(std::move(E));
  }
  return R.done();
}

std::string
gilr::incr::encodeSolverEntries(const std::vector<SavedQueryVerdict> &Es) {
  Writer W;
  W.u32(static_cast<uint32_t>(Es.size()));
  for (const SavedQueryVerdict &E : Es) {
    W.u64(E.Fp);
    W.u64(E.Fp2);
    W.u8(static_cast<uint8_t>(E.V.R));
    W.u64(E.V.Branches);
    W.u64(E.V.TheoryChecks);
  }
  return std::move(W.Out);
}

bool gilr::incr::decodeSolverEntries(const std::string &Payload,
                                     std::vector<SavedQueryVerdict> &Out) {
  Reader R(Payload);
  uint32_t N;
  if (!R.count(N))
    return false;
  Out.clear();
  Out.reserve(N);
  for (uint32_t I = 0; I != N; ++I) {
    SavedQueryVerdict E;
    uint8_t V;
    if (!R.u64(E.Fp) || !R.u64(E.Fp2) || !R.u8(V) ||
        V > static_cast<uint8_t>(SatResult::Unknown) || !R.u64(E.V.Branches) ||
        !R.u64(E.V.TheoryChecks))
      return false;
    E.V.R = static_cast<SatResult>(V);
    Out.push_back(E);
  }
  return R.done();
}

//===----------------------------------------------------------------------===//
// Report blobs
//===----------------------------------------------------------------------===//

std::string gilr::incr::encodeVerifyReport(const engine::VerifyReport &R) {
  Writer W;
  W.str(R.Func);
  W.u8(R.Ok ? 1 : 0);
  W.u8(R.TimedOut ? 1 : 0);
  W.f64(R.Seconds);
  W.u32(R.PathsCompleted);
  W.u32(R.StatesExplored);
  W.u32(R.GhostAnnotations);
  W.u32(static_cast<uint32_t>(R.Errors.size()));
  for (const std::string &E : R.Errors)
    W.str(E);
  writeSolverStats(W, R.Solver);
  W.u32(static_cast<uint32_t>(R.Phases.size()));
  for (const trace::PhaseStat &P : R.Phases) {
    W.str(P.Key);
    W.u64(P.Count);
    W.u64(P.Nanos);
  }
  W.u8(R.Static ? 1 : 0);
  return std::move(W.Out);
}

bool gilr::incr::decodeVerifyReport(const std::string &Blob,
                                    engine::VerifyReport &Out) {
  Reader R(Blob);
  uint8_t Ok, TimedOut;
  uint32_t NErrors, NPhases;
  if (!R.str(Out.Func) || !R.u8(Ok) || !R.u8(TimedOut) || !R.f64(Out.Seconds))
    return false;
  uint32_t Paths, States, Ghosts;
  if (!R.u32(Paths) || !R.u32(States) || !R.u32(Ghosts) || !R.count(NErrors))
    return false;
  Out.Ok = Ok != 0;
  Out.TimedOut = TimedOut != 0;
  Out.PathsCompleted = Paths;
  Out.StatesExplored = States;
  Out.GhostAnnotations = Ghosts;
  Out.Errors.clear();
  Out.Errors.resize(NErrors);
  for (std::string &E : Out.Errors)
    if (!R.str(E))
      return false;
  if (!readSolverStats(R, Out.Solver) || !R.count(NPhases))
    return false;
  Out.Phases.clear();
  Out.Phases.resize(NPhases);
  for (trace::PhaseStat &P : Out.Phases)
    if (!R.str(P.Key) || !R.u64(P.Count) || !R.u64(P.Nanos))
      return false;
  uint8_t Static;
  if (!R.u8(Static) || Static > 1)
    return false;
  Out.Static = Static != 0;
  return R.done();
}

std::string gilr::incr::encodeLintVerdict(const analysis::EntityVerdict &V) {
  Writer W;
  W.u8(V.Blocked ? 1 : 0);
  W.u64(V.Suppressed);
  W.u32(static_cast<uint32_t>(V.Diags.size()));
  for (const analysis::Diagnostic &D : V.Diags) {
    W.str(D.Code);
    W.u8(static_cast<uint8_t>(D.Sev));
    W.str(D.Entity);
    W.u64(static_cast<uint64_t>(static_cast<int64_t>(D.Block)));
    W.u64(static_cast<uint64_t>(static_cast<int64_t>(D.Stmt)));
    W.str(D.Message);
    W.u32(static_cast<uint32_t>(D.Notes.size()));
    for (const std::string &N : D.Notes)
      W.str(N);
    W.str(D.File);
    W.u32(D.Line);
    W.u32(D.Col);
  }
  return std::move(W.Out);
}

bool gilr::incr::decodeLintVerdict(const std::string &Blob,
                                   analysis::EntityVerdict &Out) {
  Reader R(Blob);
  uint8_t Blocked;
  uint32_t NDiags;
  if (!R.u8(Blocked) || !R.u64(Out.Suppressed) || !R.count(NDiags))
    return false;
  Out.Blocked = Blocked != 0;
  Out.Diags.clear();
  Out.Diags.resize(NDiags);
  for (analysis::Diagnostic &D : Out.Diags) {
    uint8_t Sev;
    uint64_t Block, Stmt;
    uint32_t NNotes;
    if (!R.str(D.Code) || !R.u8(Sev) ||
        Sev > static_cast<uint8_t>(analysis::Severity::Warning) ||
        !R.str(D.Entity) || !R.u64(Block) || !R.u64(Stmt) ||
        !R.str(D.Message) || !R.count(NNotes))
      return false;
    D.Sev = static_cast<analysis::Severity>(Sev);
    D.Block = static_cast<int>(static_cast<int64_t>(Block));
    D.Stmt = static_cast<int>(static_cast<int64_t>(Stmt));
    D.Notes.clear();
    D.Notes.resize(NNotes);
    for (std::string &N : D.Notes)
      if (!R.str(N))
        return false;
    if (!R.str(D.File) || !R.u32(D.Line) || !R.u32(D.Col))
      return false;
  }
  return R.done();
}

std::string gilr::incr::encodeSafeReport(const creusot::SafeReport &R) {
  Writer W;
  W.str(R.Func);
  W.u8(R.Ok ? 1 : 0);
  W.u8(R.TimedOut ? 1 : 0);
  W.f64(R.Seconds);
  W.u32(static_cast<uint32_t>(R.Obligations.size()));
  for (const creusot::SafeObligation &O : R.Obligations) {
    W.str(O.Where);
    W.str(O.What);
    W.u8(O.Ok ? 1 : 0);
  }
  W.u32(static_cast<uint32_t>(R.Errors.size()));
  for (const std::string &E : R.Errors)
    W.str(E);
  writeSolverStats(W, R.Solver);
  return std::move(W.Out);
}

bool gilr::incr::decodeSafeReport(const std::string &Blob,
                                  creusot::SafeReport &Out) {
  Reader R(Blob);
  uint8_t Ok, TimedOut;
  uint32_t NObl, NErrors;
  if (!R.str(Out.Func) || !R.u8(Ok) || !R.u8(TimedOut) ||
      !R.f64(Out.Seconds) || !R.count(NObl))
    return false;
  Out.Ok = Ok != 0;
  Out.TimedOut = TimedOut != 0;
  Out.Obligations.clear();
  Out.Obligations.resize(NObl);
  for (creusot::SafeObligation &O : Out.Obligations) {
    uint8_t OOk;
    if (!R.str(O.Where) || !R.str(O.What) || !R.u8(OOk))
      return false;
    O.Ok = OOk != 0;
  }
  if (!R.count(NErrors))
    return false;
  Out.Errors.clear();
  Out.Errors.resize(NErrors);
  for (std::string &E : Out.Errors)
    if (!R.str(E))
      return false;
  return readSolverStats(R, Out.Solver) && R.done();
}

std::string gilr::incr::encodeFnSummary(const analysis::FnSummary &S) {
  Writer W;
  const bool Bools[] = {S.Known,          S.Recursive,     S.Leaf,
                        S.Pure,           S.HeapReads,     S.HeapWrites,
                        S.UnsafeOps,      S.UnsafeEscapes, S.HasGhost,
                        S.HasCheckedArith, S.HasUnreachable, S.HasLemmaApply,
                        S.WritesReturn};
  for (bool B : Bools)
    W.u8(B ? 1 : 0);
  W.u32(static_cast<uint32_t>(S.Params.size()));
  for (const analysis::ParamEffect &E : S.Params) {
    W.u8(E.Read ? 1 : 0);
    W.u8(E.Written ? 1 : 0);
    W.u8(E.Escaped ? 1 : 0);
  }
  W.u32(static_cast<uint32_t>(S.MayAliasParams.size()));
  for (const auto &[A, B] : S.MayAliasParams) {
    W.u32(A);
    W.u32(B);
  }
  W.u32(static_cast<uint32_t>(S.DepFns.size()));
  for (const std::string &N : S.DepFns)
    W.str(N);
  W.u32(static_cast<uint32_t>(S.DepPreds.size()));
  for (const std::string &N : S.DepPreds)
    W.str(N);
  return std::move(W.Out);
}

bool gilr::incr::decodeFnSummary(const std::string &Blob,
                                 analysis::FnSummary &Out) {
  Reader R(Blob);
  bool *const Bools[] = {&Out.Known,          &Out.Recursive,
                         &Out.Leaf,           &Out.Pure,
                         &Out.HeapReads,      &Out.HeapWrites,
                         &Out.UnsafeOps,      &Out.UnsafeEscapes,
                         &Out.HasGhost,       &Out.HasCheckedArith,
                         &Out.HasUnreachable, &Out.HasLemmaApply,
                         &Out.WritesReturn};
  for (bool *B : Bools) {
    uint8_t V;
    if (!R.u8(V) || V > 1)
      return false;
    *B = V != 0;
  }
  uint32_t N;
  if (!R.count(N))
    return false;
  Out.Params.clear();
  Out.Params.resize(N);
  for (analysis::ParamEffect &E : Out.Params) {
    uint8_t Rd, Wr, Esc;
    if (!R.u8(Rd) || Rd > 1 || !R.u8(Wr) || Wr > 1 || !R.u8(Esc) || Esc > 1)
      return false;
    E.Read = Rd != 0;
    E.Written = Wr != 0;
    E.Escaped = Esc != 0;
  }
  if (!R.count(N))
    return false;
  Out.MayAliasParams.clear();
  Out.MayAliasParams.resize(N);
  for (auto &[A, B] : Out.MayAliasParams)
    if (!R.u32(A) || !R.u32(B))
      return false;
  if (!R.count(N))
    return false;
  Out.DepFns.clear();
  for (uint32_t I = 0; I != N; ++I) {
    std::string S;
    if (!R.str(S))
      return false;
    Out.DepFns.insert(std::move(S));
  }
  if (!R.count(N))
    return false;
  Out.DepPreds.clear();
  for (uint32_t I = 0; I != N; ++I) {
    std::string S;
    if (!R.str(S))
      return false;
    Out.DepPreds.insert(std::move(S));
  }
  return R.done();
}

std::string gilr::incr::encodePredSummary(const analysis::PredSummary &S) {
  Writer W;
  W.u8(S.Known ? 1 : 0);
  W.u8(S.OwnsUnknown ? 1 : 0);
  W.u32(static_cast<uint32_t>(S.MayOwnParam.size()));
  for (bool B : S.MayOwnParam)
    W.u8(B ? 1 : 0);
  W.u32(static_cast<uint32_t>(S.DepPreds.size()));
  for (const std::string &N : S.DepPreds)
    W.str(N);
  return std::move(W.Out);
}

bool gilr::incr::decodePredSummary(const std::string &Blob,
                                   analysis::PredSummary &Out) {
  Reader R(Blob);
  uint8_t Known, Owns;
  uint32_t N;
  if (!R.u8(Known) || Known > 1 || !R.u8(Owns) || Owns > 1 || !R.count(N))
    return false;
  Out.Known = Known != 0;
  Out.OwnsUnknown = Owns != 0;
  Out.MayOwnParam.clear();
  Out.MayOwnParam.resize(N);
  for (uint32_t I = 0; I != N; ++I) {
    uint8_t B;
    if (!R.u8(B) || B > 1)
      return false;
    Out.MayOwnParam[I] = B != 0;
  }
  if (!R.count(N))
    return false;
  Out.DepPreds.clear();
  for (uint32_t I = 0; I != N; ++I) {
    std::string S;
    if (!R.str(S))
      return false;
    Out.DepPreds.insert(std::move(S));
  }
  return R.done();
}

//===- incr/Session.cpp -----------------------------------------------------------===//

#include "incr/Session.h"

#include "solver/Flight.h"
#include "support/Trace.h"

#include <algorithm>
#include <filesystem>
#include <tuple>

using namespace gilr;
using namespace gilr::incr;

namespace {

/// Fingerprint of an entity that does not (currently) exist. A fixed
/// sentinel, so an obligation recorded while an entity was missing stays
/// valid as long as it remains missing and invalidates when it appears.
constexpr uint64_t MissingEntityFp = 0x6d69'7373'696e'67ull; // "missing".

/// Bumps \p Counter and, with tracing on, the registry metric \p Metric.
void count(uint64_t &Counter, const char *Metric) {
  ++Counter;
  if (trace::enabled())
    metrics::Registry::get().add(Metric);
}

/// The flight-journal side tag salvage queries are attributed to.
char flightSide(Side S) {
  switch (S) {
  case Side::Unsafe:
    return 'U';
  case Side::Safe:
    return 'S';
  case Side::Lint:
    return 'L';
  case Side::Summary:
    return 'M';
  }
  return '?';
}

/// A lookup Decode callback that fills \p Out and marks it as replayed.
template <typename ReportT>
std::function<bool(const std::string &)>
replayInto(bool (*Decode)(const std::string &, ReportT &), ReportT &Out) {
  return [Decode, &Out](const std::string &Blob) {
    if (!Decode(Blob, Out))
      return false;
    Out.Cached = true;
    return true;
  };
}

/// Side::Summary key of a predicate summary (function summaries use the
/// bare name; the prefix keeps the two namespaces disjoint).
std::string predSummaryKey(const std::string &Pred) { return "pred:" + Pred; }

} // namespace

Session::Session(const IncrConfig &Cfg, engine::VerifEnv &Env,
                 const creusot::PearliteSpecTable *Contracts)
    : Cfg(Cfg), Env(Env), Contracts(Contracts) {
  ConfigFp = fpAutomation(Env.Auto, Env.Solv.MaxBranches);
  LintConfigFp = fpAnalysisConfig(Env.Lint, Env.Solv.MaxBranches);
  SummaryConfigFp = fpSummaryConfig();
  if (!Cfg.StorePath.empty()) {
    std::error_code EC;
    Stats.StoreLoaded = std::filesystem::is_directory(Cfg.StorePath, EC);
    open(Local, Cfg.StorePath);
  }
  if (Cfg.Shared)
    Shared.Store = Cfg.Shared;
  else if (!Cfg.SharedCacheDir.empty())
    open(Shared, Cfg.SharedCacheDir);
  std::string Blob;
  if (Local.Store && Local.Store->get(solverEntriesKey(), Blob) &&
      !decodeSolverEntries(Blob, LoadedSolver))
    LoadedSolver.clear();
  Index = readIndex();
}

void Session::open(Level &L, const std::string &Dir) {
  RecordStoreConfig RC;
  RC.Dir = Dir;
  L.Owned = std::make_unique<RecordStore>(std::move(RC));
  if (!L.Owned->error().empty()) {
    // Run without it: never read, never written (never clobbered).
    L.Failed = true;
    Stats.StoreWarnings.push_back("cannot use proof store " + Dir + ": " +
                                  L.Owned->error() + "; running without it");
    return;
  }
  L.Store = L.Owned.get();
}

bool Session::fetch(Level &L, const CacheKey &K, StoredObligation &Out) {
  std::string Blob;
  // The key is derived from the record's identity; a blob whose decoded
  // identity disagrees (corrupt store) must not masquerade as a hit.
  return L.Store && L.Store->get(K, Blob) &&
         decodeObligationRecord(Blob, Out) &&
         obligationCacheKey(Out.S, Out.Name, Out.SelfFp, Out.ConfigFp) == K;
}

bool Session::write(Level &L, const CacheKey &K, const std::string &Blob) {
  if (!L.Store || L.Failed)
    return false;
  std::string Why;
  RecordStore::PutResult R = L.Store->put(K, Blob, &Why);
  if (R == RecordStore::PutResult::Failed) {
    // Reported once; the rest of the run does not retry this store.
    L.Failed = true;
    Stats.StoreWarnings.push_back("cannot write proof store " +
                                  L.Store->config().Dir + ": " + Why +
                                  "; verdicts are not cached there");
  }
  return R == RecordStore::PutResult::Written;
}

std::map<ObligationId, IndexEntry> Session::readIndex() {
  std::map<ObligationId, IndexEntry> Out;
  std::string Blob;
  std::vector<IndexEntry> Es;
  if (Local.Store && Local.Store->get(storeIndexKey(), Blob) &&
      decodeStoreIndex(Blob, Es))
    for (IndexEntry &E : Es)
      Out[ObligationId{E.S, E.Name}] = std::move(E);
  return Out;
}

void Session::index(const ObligationId &Id, const CacheKey &K,
                    const std::vector<StoredDep> *Refreshed) {
  if (Cfg.ReadOnly || !Local.Store)
    return;
  auto It = Index.find(Id);
  if (It != Index.end()) {
    if (!(It->second.Key == K))
      Superseded.push_back(It->second.Key);
    else if (!Refreshed && !It->second.Refreshed)
      return; // Already current.
  }
  IndexEntry &E = Index[Id];
  E.S = Id.S;
  E.Name = Id.Name;
  E.Key = K;
  E.Refreshed = Refreshed != nullptr;
  E.Deps = Refreshed ? *Refreshed : std::vector<StoredDep>();
  IndexTouched.insert(Id);
}

void Session::keepLocally(const StoredObligation &Ob, const CacheKey &K) {
  if (Cfg.ReadOnly)
    return;
  write(Local, K, encodeObligationRecord(Ob));
  index(ObligationId{Ob.S, Ob.Name}, K, nullptr);
}

uint64_t Session::currentFp(const DepKey &Key) {
  // Callers hold Mu (public callers go through lookup*/record*); the
  // test-facing direct call is single-threaded by contract.
  auto It = FpMemo.find(Key);
  if (It != FpMemo.end())
    return It->second;

  uint64_t Fp = MissingEntityFp;
  switch (Key.K) {
  case deps::Kind::Function:
    if (const rmir::Function *F = Env.Prog.lookup(Key.Name))
      Fp = fpFunction(*F);
    break;
  case deps::Kind::Spec:
    if (const gilsonite::Spec *S = Env.Specs.lookup(Key.Name))
      Fp = fpSpec(*S);
    break;
  case deps::Kind::Pred:
    if (const gilsonite::PredDecl *P = Env.Preds.lookup(Key.Name))
      Fp = fpPred(*P);
    break;
  case deps::Kind::Lemma:
    if (const std::variant<engine::FreezeLemma, engine::ExtractLemma> *L =
            Env.Lemmas.lookup(Key.Name))
      Fp = fpLemma(*L);
    break;
  case deps::Kind::Contract:
    if (Contracts)
      if (const creusot::PearliteSpec *C = Contracts->lookup(Key.Name))
        Fp = fpContract(*C);
    break;
  }
  FpMemo.emplace(Key, Fp);
  return Fp;
}

const EntitySig &Session::currentSig(const DepKey &Key) {
  // Callers hold Mu, like currentFp.
  auto It = SigMemo.find(Key);
  if (It != SigMemo.end())
    return It->second;

  EntitySig Sig;
  switch (Key.K) {
  case deps::Kind::Function:
    break; // RMIR bodies have no clause structure: whole-fp only.
  case deps::Kind::Spec:
    if (const gilsonite::Spec *S = Env.Specs.lookup(Key.Name))
      Sig = sigSpec(*S);
    break;
  case deps::Kind::Pred:
    if (const gilsonite::PredDecl *P = Env.Preds.lookup(Key.Name))
      Sig = sigPred(*P);
    break;
  case deps::Kind::Lemma:
    if (const std::variant<engine::FreezeLemma, engine::ExtractLemma> *L =
            Env.Lemmas.lookup(Key.Name))
      Sig = sigLemma(*L);
    break;
  case deps::Kind::Contract:
    if (Contracts)
      if (const creusot::PearliteSpec *C = Contracts->lookup(Key.Name))
        Sig = sigContract(*C);
    break;
  }
  return SigMemo.emplace(Key, std::move(Sig)).first->second;
}

Session::DepsVerdict Session::checkDeps(const StoredObligation &Ob,
                                        char FlightSide) {
  bool AnySalvage = false;
  std::vector<SalvageObligation> Queries;
  for (const StoredDep &D : Ob.Deps) {
    if (currentFp(DepKey{D.K, D.Name}) == D.Fp)
      continue;
    // Lint verdicts never salvage: their diagnostics quote spec text, so a
    // semantically neutral rewrite would still change the rendered output.
    // Summaries never salvage either: they are cheap to recompute and their
    // facts depend on exact body/clause structure, not on implications.
    if (!Cfg.SemanticSalvage || Ob.S == Side::Lint || Ob.S == Side::Summary ||
        !D.HasSig)
      return DepsVerdict::Invalid;
    const EntitySig &Cur = currentSig(DepKey{D.K, D.Name});
    // A proof is verified *against* its own spec and may also consume it at
    // recursive call sites; diffForSalvage then requires both directions.
    bool SelfDep = D.K == deps::Kind::Spec && D.Name == Ob.Name;
    SalvageVerdict V = diffForSalvage(D.Sig, Cur, SelfDep, Queries);
    if (V == SalvageVerdict::Invalid)
      return DepsVerdict::Invalid;
    AnySalvage = true;
  }
  if (!AnySalvage)
    return DepsVerdict::Clean;
  if (Queries.empty())
    return DepsVerdict::Salvaged;
  // Discharge the implications through the solver chain, attributed to
  // this obligation in the flight journal. Queries go through the memo
  // layer like any other, so a repeated edit re-salvages from cache.
  flight::ObligationScope Scope(Ob.Name, FlightSide);
  for (const SalvageObligation &Q : Queries) {
    count(Stats.SalvageQueries, "incr.salvage_queries");
    if (!Env.Solv.entails(Q.Ctx, Q.Goal))
      return DepsVerdict::Invalid;
  }
  return DepsVerdict::Implied;
}

std::vector<StoredDep> Session::snapshotDeps(const std::set<DepKey> &Deps) {
  std::vector<StoredDep> Out;
  Out.reserve(Deps.size());
  for (const DepKey &K : Deps) {
    StoredDep D;
    D.K = K.K;
    D.Name = K.Name;
    D.Fp = currentFp(K);
    const EntitySig &Sig = currentSig(K);
    if (Sig.valid()) {
      D.HasSig = true;
      D.Sig = Sig;
    }
    Out.push_back(std::move(D));
  }
  return Out;
}

bool Session::lookup(
    Side S, const std::string &Name, uint64_t SelfFp, uint64_t CfgFp,
    const std::function<bool(const std::string &)> &Decode) {
  CacheKey K = obligationCacheKey(S, Name, SelfFp, CfgFp);
  ObligationId Id{S, Name};
  auto Idx = Index.find(Id);
  StoredObligation Ob;
  bool FromShared = false;
  // Whether a record was found but is no longer valid, or the local store
  // indexes the obligation under an older key (its own entity or the
  // configuration changed). Summaries are recomputed without counting.
  bool Stale = false;
  if (fetch(Local, K, Ob)) {
    if (Idx != Index.end() && Idx->second.Key == K && Idx->second.Refreshed)
      Ob.Deps = Idx->second.Deps; // The last salvage's snapshot.
  } else {
    Stale = Idx != Index.end();
    if (Shared.Store) {
      // Remembered, found or not, so the record path need not read it
      // again; and pinned, so a GC does not evict it before this run's put.
      auto Ins = SharedSeen.try_emplace(K);
      StoredObligation Got;
      if (Ins.second && fetch(Shared, K, Got))
        Ins.first->second = std::move(Got);
      if (Ins.first->second) {
        Ob = *Ins.first->second;
        FromShared = true;
      }
    }
    if (!FromShared) {
      if (Stale && S != Side::Summary)
        ++Stats.Invalidated;
      return false;
    }
  }
  DepsVerdict DV = checkDeps(Ob, flightSide(S));
  if (DV == DepsVerdict::Invalid) {
    if (S != Side::Summary)
      ++Stats.Invalidated;
    return false;
  }
  if (!Decode(Ob.Blob))
    return false; // Malformed blob: treat as a miss, re-verify.
  switch (S) {
  case Side::Unsafe:
    count(Stats.CachedUnsafe, "incr.cached");
    break;
  case Side::Safe:
    count(Stats.CachedSafe, "incr.cached");
    break;
  case Side::Lint:
    count(Stats.CachedLint, "incr.lint_cached");
    break;
  case Side::Summary:
    count(Stats.SummariesReused, "incr.summaries_reused");
    break;
  }
  if (FromShared)
    count(Stats.SharedHits, "incr.shared_hits");
  // The stored deps stay current (nothing changed), so the graph keeps
  // answering dependentsOf precisely on warm runs too.
  std::set<DepKey> Deps;
  for (const StoredDep &D : Ob.Deps)
    Deps.insert(DepKey{D.K, D.Name});
  if (DV != DepsVerdict::Clean) {
    if (DV == DepsVerdict::Implied)
      count(Stats.Implied, "incr.implied");
    else
      count(Stats.Salvaged, "incr.salvaged");
    // Take the current dependency fingerprints, so the next run takes the
    // plain warm path. A local record keeps its file: the new snapshot goes
    // into the index, written once at flush. The shared copy stays: its
    // other readers may still be on the old dependencies.
    Ob.Deps = snapshotDeps(Deps);
  }
  if (FromShared)
    keepLocally(Ob, K);
  else
    index(Id, K, DV != DepsVerdict::Clean ? &Ob.Deps : nullptr);
  Graph.record(Id, std::move(Deps));
  return true;
}

void Session::record(Side S, const std::string &Name, uint64_t SelfFp,
                     uint64_t CfgFp, const std::set<DepKey> &Deps,
                     std::optional<std::string> Blob) {
  switch (S) {
  case Side::Unsafe:
    count(Stats.VerifiedUnsafe, "incr.verified");
    break;
  case Side::Safe:
    count(Stats.VerifiedSafe, "incr.verified");
    break;
  case Side::Lint:
    count(Stats.AnalyzedLint, "incr.lint_analyzed");
    break;
  case Side::Summary:
    count(Stats.SummariesComputed, "incr.summaries_computed");
    break;
  }
  Graph.record(ObligationId{S, Name}, std::set<DepKey>(Deps));
  if (!Blob || Cfg.ReadOnly)
    return;
  StoredObligation Ob;
  Ob.S = S;
  Ob.Name = Name;
  Ob.SelfFp = SelfFp;
  Ob.ConfigFp = CfgFp;
  Ob.Deps = snapshotDeps(Deps);
  Ob.Blob = std::move(*Blob);
  CacheKey K = obligationCacheKey(S, Name, SelfFp, CfgFp);
  keepLocally(Ob, K);
  if (!Shared.Store)
    return;
  // The shared store serves runs on other dependency contexts under the
  // same key. A fresh proof verdict replaces its copy, so the next run of
  // the same edit replays it; lint verdicts and summaries, cheap to
  // recompute, only fill a missing record, so that runs on different
  // contexts do not keep evicting each other's. What the shared store held
  // is known from this run's lookup of the key.
  auto Seen = SharedSeen.try_emplace(K);
  if (Seen.second) {
    StoredObligation Got; // Recorded without a lookup: read it now.
    if (fetch(Shared, K, Got))
      Seen.first->second = std::move(Got);
  }
  if ((S == Side::Unsafe || S == Side::Safe || !Seen.first->second) &&
      write(Shared, K, encodeObligationRecord(Ob))) {
    count(Stats.SharedPuts, "incr.shared_puts");
    Seen.first->second = std::move(Ob);
  }
}

bool Session::lookupUnsafe(const std::string &Func,
                           engine::VerifyReport &Out) {
  std::lock_guard<std::mutex> Lock(Mu);
  return lookup(Side::Unsafe, Func,
                currentFp(DepKey{deps::Kind::Function, Func}), ConfigFp,
                replayInto(decodeVerifyReport, Out));
}

void Session::recordUnsafe(const std::string &Func,
                           const std::set<DepKey> &Deps,
                           const engine::VerifyReport &R) {
  std::lock_guard<std::mutex> Lock(Mu);
  // Budget-degraded results are transient; never cache them.
  record(Side::Unsafe, Func, currentFp(DepKey{deps::Kind::Function, Func}),
         ConfigFp, Deps,
         R.TimedOut ? std::nullopt
                    : std::optional<std::string>(encodeVerifyReport(R)));
}

bool Session::lookupSafe(const creusot::SafeFn &F, creusot::SafeReport &Out) {
  std::lock_guard<std::mutex> Lock(Mu);
  return lookup(Side::Safe, F.Name, fpSafeFn(F), ConfigFp,
                replayInto(decodeSafeReport, Out));
}

void Session::recordSafe(const creusot::SafeFn &F,
                         const std::set<DepKey> &Deps,
                         const creusot::SafeReport &R) {
  std::lock_guard<std::mutex> Lock(Mu);
  record(Side::Safe, F.Name, fpSafeFn(F), ConfigFp, Deps,
         R.TimedOut ? std::nullopt
                    : std::optional<std::string>(encodeSafeReport(R)));
}

bool Session::lookupLint(const std::string &Func,
                         analysis::EntityVerdict &Out) {
  std::lock_guard<std::mutex> Lock(Mu);
  return lookup(Side::Lint, Func,
                currentFp(DepKey{deps::Kind::Function, Func}), LintConfigFp,
                replayInto(decodeLintVerdict, Out));
}

void Session::recordLint(const std::string &Func,
                         const std::set<DepKey> &Deps,
                         const analysis::EntityVerdict &V) {
  std::lock_guard<std::mutex> Lock(Mu);
  record(Side::Lint, Func, currentFp(DepKey{deps::Kind::Function, Func}),
         LintConfigFp, Deps, encodeLintVerdict(V));
}

bool Session::lookupSummaryFn(const std::string &Func,
                              analysis::FnSummary &Out) {
  std::lock_guard<std::mutex> Lock(Mu);
  return lookup(Side::Summary, Func,
                currentFp(DepKey{deps::Kind::Function, Func}),
                SummaryConfigFp,
                [&](const std::string &Blob) {
                  return decodeFnSummary(Blob, Out);
                });
}

void Session::recordSummaryFn(const std::string &Func,
                              const std::set<DepKey> &Deps,
                              const analysis::FnSummary &S) {
  std::lock_guard<std::mutex> Lock(Mu);
  record(Side::Summary, Func, currentFp(DepKey{deps::Kind::Function, Func}),
         SummaryConfigFp, Deps, encodeFnSummary(S));
}

bool Session::lookupSummaryPred(const std::string &Pred,
                                analysis::PredSummary &Out) {
  std::lock_guard<std::mutex> Lock(Mu);
  return lookup(Side::Summary, predSummaryKey(Pred),
                currentFp(DepKey{deps::Kind::Pred, Pred}), SummaryConfigFp,
                [&](const std::string &Blob) {
                  return decodePredSummary(Blob, Out);
                });
}

void Session::recordSummaryPred(const std::string &Pred,
                                const std::set<DepKey> &Deps,
                                const analysis::PredSummary &S) {
  std::lock_guard<std::mutex> Lock(Mu);
  record(Side::Summary, predSummaryKey(Pred),
         currentFp(DepKey{deps::Kind::Pred, Pred}), SummaryConfigFp, Deps,
         encodePredSummary(S));
}

void Session::noteTriagedStatic() {
  std::lock_guard<std::mutex> Lock(Mu);
  count(Stats.TriagedStatic, "incr.triaged_static");
}

std::vector<SavedQueryVerdict> Session::solverEntriesToLoad() const {
  return LoadedSolver;
}

void Session::saveSolverEntries(std::vector<SavedQueryVerdict> Entries) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Cfg.ReadOnly)
    return;
  // Sorted, so a fully warm run — the entries it loaded, in whatever shard
  // order — re-puts the same bytes and writes nothing.
  std::sort(Entries.begin(), Entries.end(),
            [](const SavedQueryVerdict &A, const SavedQueryVerdict &B) {
              return std::tie(A.Fp, A.Fp2) < std::tie(B.Fp, B.Fp2);
            });
  write(Local, solverEntriesKey(), encodeSolverEntries(Entries));
}

bool Session::flush() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Cfg.ReadOnly)
    return true;
  if (!IndexTouched.empty() && !Local.Failed) {
    // Merged into the index on disk: another run on the same store may
    // have indexed other obligations since this session opened.
    std::map<ObligationId, IndexEntry> Merged = readIndex();
    std::set<CacheKey> Current;
    for (const ObligationId &Id : IndexTouched) {
      Merged[Id] = Index[Id];
      Current.insert(Index[Id].Key);
    }
    std::vector<IndexEntry> Es;
    Es.reserve(Merged.size());
    for (auto &KV : Merged)
      Es.push_back(std::move(KV.second));
    write(Local, storeIndexKey(), encodeStoreIndex(Es));
    // A record this run superseded (an edit of the obligation itself or a
    // configuration change) is not read again: the store keeps one record
    // per obligation.
    if (!Local.Failed)
      for (const CacheKey &K : Superseded)
        if (!Current.count(K))
          Local.Store->remove(K);
    IndexTouched.clear();
    Superseded.clear();
  }
  if (Shared.Store && Shared.Store->config().SizeBudgetBytes) {
    std::set<CacheKey> Pins;
    for (const auto &KV : SharedSeen)
      Pins.insert(KV.first);
    Shared.Store->gc(Pins);
  }
  return !Local.Failed;
}

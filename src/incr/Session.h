//===- incr/Session.h - One incremental verification session ---------------===//
///
/// \file
/// The orchestration point of incremental verification: opens the proof
/// stores and owns the dependency graph for one run, answers the
/// scheduler's "is this obligation's cached verdict still valid?"
/// question, and records fresh results. An obligation's cached verdict is
/// reused iff
///
///   * a store holds a record under its key — side, name, its own entity's
///     fingerprint and the configuration fingerprint (automation knobs +
///     solver budget) — first the local store, then the shared one, and
///   * *every* recorded dependency's current fingerprint matches the one it
///     had when the proof ran.
///
/// Fingerprint comparisons are against the *current* tables, so editing one
/// lemma invalidates exactly the obligations whose proofs consulted it —
/// the dependency sets are closures (a proof consults everything it
/// transitively uses), so checking the directly recorded deps covers the
/// transitive case.
///
/// When a dependency's whole-entity fingerprint *has* moved, the session
/// does not give up immediately: it diffs the stored clause-level signature
/// against the current entity (incr/SpecDiff.h). An edit confined to
/// clauses the proof could not have relied on (reorders, doc strings)
/// revalidates with zero solver work ("salvaged"); an edit to pure clauses
/// is justified by implication queries through the solver chain — prove
/// new-spec => old-spec in the direction the use site requires — and keeps
/// the cached verdict when they hold ("implied"). Anything else falls back
/// to full re-verification. Lint verdicts never salvage: their rendered
/// diagnostics quote spec text, so they require strict equality.
///
/// The local store keeps one record per obligation, tracked by its index
/// record (the key of each obligation's current record). A fresh verdict
/// replaces the record under its key, and a verdict replayed from the
/// shared store is copied in; the record it supersedes is removed at
/// flush. A salvage rewrites no record: the refreshed dependency snapshot
/// goes into the index, written once per run. The shared store, read by
/// runs on other dependency contexts, takes fresh proof verdicts
/// (replacing its copy) and fills missing records; salvage refreshes and
/// recomputed lint verdicts and summaries do not overwrite it.
///
/// Thread-safe: the scheduler's workers call lookup*/record* concurrently.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_INCR_SESSION_H
#define GILR_INCR_SESSION_H

#include "incr/DepGraph.h"
#include "incr/Fingerprint.h"
#include "incr/Record.h"
#include "incr/RecordStore.h"
#include "incr/SpecDiff.h"

#include <functional>
#include <memory>
#include <mutex>
#include <optional>

namespace gilr {
namespace incr {

/// Knobs of incremental verification. Off by default: a default-constructed
/// config makes the drivers behave exactly as before.
struct IncrConfig {
  /// Master switch; when false the overloads fall through to the plain
  /// scheduler path and never touch the disk.
  bool Enabled = false;
  /// The local proof store: a record directory (incr/RecordStore.h),
  /// created on the first write. A missing directory or a corrupt record
  /// means a cold run (for that record), never an error; a path that names
  /// something other than a directory runs cold with one warning and is
  /// never written.
  std::string StorePath;
  /// Use the stores without writing them (e.g. CI replay).
  bool ReadOnly = false;
  /// Clause-level semantic salvage across spec edits (incr/SpecDiff.h).
  /// Off = blanket invalidation: any dependency fingerprint change
  /// re-verifies the dependent, the pre-salvage behaviour (the baseline
  /// bench_incr measures the edit-to-verdict speedup against).
  bool SemanticSalvage = true;
  /// Shared record directory, the second cache level behind the local
  /// store: local misses consult it, fresh verdicts are published to it
  /// (see Session). Empty = no shared cache.
  std::string SharedCacheDir;
  /// Externally owned shared store, overriding SharedCacheDir — the gilrd
  /// daemon shares one resident store across requests. The session's
  /// flush() runs its size-budget GC, sparing the keys this run touched.
  RecordStore *Shared = nullptr;
};

/// Counters of one incremental run.
struct IncrRunStats {
  uint64_t CachedUnsafe = 0;
  uint64_t CachedSafe = 0;
  uint64_t VerifiedUnsafe = 0;
  uint64_t VerifiedSafe = 0;
  /// Pre-verification lint verdicts replayed from the store / computed
  /// fresh. Kept out of cached()/verified(), which count proof obligations.
  uint64_t CachedLint = 0;
  uint64_t AnalyzedLint = 0;
  /// Interprocedural summaries (Side::Summary) computed this run vs.
  /// replayed from the store. Like lint verdicts, kept out of
  /// cached()/verified().
  uint64_t SummariesComputed = 0;
  uint64_t SummariesReused = 0;
  /// Obligations the triage tier discharged statically (summary proves them
  /// trivially safe; the executor never ran). Bumped by the scheduler, not
  /// the session.
  uint64_t TriagedStatic = 0;
  /// Store records found but rejected because a fingerprint changed —
  /// a dependency's, or the obligation's own or its configuration's (a
  /// local-store miss whose index held an older key).
  uint64_t Invalidated = 0;
  /// Obligations replayed although a dependency fingerprint moved, because
  /// the edit touched no clause the proof relied on (zero solver work) /
  /// because the salvage implications held. Both also count in cached().
  uint64_t Salvaged = 0;
  uint64_t Implied = 0;
  /// Solver queries spent discharging salvage implications.
  uint64_t SalvageQueries = 0;
  /// Verdicts replayed from the shared store after a local-store miss (also
  /// counted in cached()/CachedLint), and records written to it.
  uint64_t SharedHits = 0;
  uint64_t SharedPuts = 0;
  /// Whether the local store directory existed when the session opened.
  bool StoreLoaded = false;
  /// One line per store that could not be used or written this run; the
  /// verdicts stand, they are just not (all) cached.
  std::vector<std::string> StoreWarnings;

  uint64_t cached() const { return CachedUnsafe + CachedSafe; }
  uint64_t verified() const { return VerifiedUnsafe + VerifiedSafe; }
  uint64_t salvaged() const { return Salvaged + Implied; }
};

class Session {
public:
  /// Opens the stores (if any). \p Contracts may be null for unsafe-only
  /// runs (engine::Verifier::verifyAll); Contract deps then never validate
  /// unless absent from the record.
  Session(const IncrConfig &Cfg, engine::VerifEnv &Env,
          const creusot::PearliteSpecTable *Contracts);

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Returns true and fills \p Out (with \c Cached set) when the store
  /// holds a still-valid verdict for unsafe obligation \p Func.
  bool lookupUnsafe(const std::string &Func, engine::VerifyReport &Out);

  /// Records a freshly computed unsafe verdict with the dependencies its
  /// proof consulted. Budget-degraded (TimedOut) results are never cached.
  void recordUnsafe(const std::string &Func, const std::set<DepKey> &Deps,
                    const engine::VerifyReport &R);

  /// Safe-side counterparts (the obligation's own fingerprint is the
  /// client body's, which lives in no table).
  bool lookupSafe(const creusot::SafeFn &F, creusot::SafeReport &Out);
  void recordSafe(const creusot::SafeFn &F, const std::set<DepKey> &Deps,
                  const creusot::SafeReport &R);

  /// Pre-verification lint verdicts, cached like proofs but keyed by the
  /// analysis configuration fingerprint (incr::fpAnalysisConfig) instead of
  /// the automation one — toggling a lint knob re-lints without
  /// invalidating proofs, and vice versa.
  bool lookupLint(const std::string &Func, analysis::EntityVerdict &Out);
  void recordLint(const std::string &Func, const std::set<DepKey> &Deps,
                  const analysis::EntityVerdict &V);

  /// Interprocedural summaries (Side::Summary), cached like lint verdicts
  /// but keyed by the summary version salt (incr::fpSummaryConfig) — they
  /// are a pure function of the program tables, so no knob invalidates
  /// them. Function summaries are keyed by the function name; predicate
  /// summaries by "pred:<name>". The dependency sets are the summaries' own
  /// reachable closures (FnSummary::DepFns/DepPreds), so an edit
  /// invalidates exactly the reverse-reachable summaries.
  bool lookupSummaryFn(const std::string &Func, analysis::FnSummary &Out);
  void recordSummaryFn(const std::string &Func, const std::set<DepKey> &Deps,
                       const analysis::FnSummary &S);
  bool lookupSummaryPred(const std::string &Pred, analysis::PredSummary &Out);
  void recordSummaryPred(const std::string &Pred,
                         const std::set<DepKey> &Deps,
                         const analysis::PredSummary &S);

  /// Bumps the static-triage counter (the scheduler's triage tier reports
  /// through the session so the counters travel with the run stats).
  void noteTriagedStatic();

  /// The solver-cache entries persisted in the local store, to pre-warm
  /// the QueryCache with (empty without a local store).
  std::vector<SavedQueryVerdict> solverEntriesToLoad() const;

  /// Persists the run's QueryCache contents in the local store. The record
  /// holds them sorted, so it is rewritten only when they changed.
  void saveSolverEntries(std::vector<SavedQueryVerdict> Entries);

  /// Writes the local store's index if this run changed it, removes the
  /// records it superseded, and runs the shared store's size-budget GC
  /// (with a budget), sparing this run's keys. Returns false when the
  /// local store could not be used or written this run. No-op (success)
  /// when ReadOnly.
  bool flush();

  const IncrRunStats &stats() const { return Stats; }
  const DepGraph &graph() const { return Graph; }
  const IncrConfig &config() const { return Cfg; }

  /// The current fingerprint of \p Key against the session's tables
  /// (memoised; a missing entity maps to a fixed sentinel, so "was missing
  /// then, still missing now" validates). Exposed for tests.
  uint64_t currentFp(const DepKey &Key);

  /// The current clause-level signature of \p Key (memoised; invalid for
  /// missing entities and for kinds without clause structure). Exposed for
  /// tests.
  const EntitySig &currentSig(const DepKey &Key);

private:
  /// Outcome of validating a stored obligation's dependency set.
  enum class DepsVerdict {
    Clean,    ///< Every fingerprint matches: plain warm hit.
    Salvaged, ///< Some moved, but no relied-on clause changed (zero work).
    Implied,  ///< Some moved; the salvage implications all held.
    Invalid,  ///< Re-verify.
  };
  DepsVerdict checkDeps(const StoredObligation &Ob, char FlightSide);
  std::vector<StoredDep> snapshotDeps(const std::set<DepKey> &Deps);

  /// One cache level: the store (null when absent or unusable) and whether
  /// its write failure has been reported this run.
  struct Level {
    std::unique_ptr<RecordStore> Owned;
    RecordStore *Store = nullptr;
    bool Failed = false;
  };
  void open(Level &L, const std::string &Dir);
  /// Reads the obligation record under \p K from \p L.
  bool fetch(Level &L, const CacheKey &K, StoredObligation &Out);
  /// Writes \p Blob under \p K to \p L; true when it was written (not
  /// failed, not already there).
  bool write(Level &L, const CacheKey &K, const std::string &Blob);
  /// Writes \p Ob under \p K to the local store and indexes it. No-op
  /// when ReadOnly.
  void keepLocally(const StoredObligation &Ob, const CacheKey &K);
  /// The local store's index record (empty without one).
  std::map<ObligationId, IndexEntry> readIndex();
  /// Makes \p K the current record of \p Id in the index, with a salvage's
  /// \p Refreshed dependency snapshot if given. Callers hold Mu.
  void index(const ObligationId &Id, const CacheKey &K,
             const std::vector<StoredDep> *Refreshed);

  /// The keyed lookup behind every lookup* wrapper: the local store, then
  /// the shared one, then dependency validation. \p Decode turns the
  /// stored blob into the caller's report. Callers hold Mu.
  bool lookup(Side S, const std::string &Name, uint64_t SelfFp,
              uint64_t CfgFp,
              const std::function<bool(const std::string &)> &Decode);
  /// The record path behind every record* wrapper. Without a \p Blob
  /// (budget-degraded results) the verdict is counted but never cached.
  /// Callers hold Mu.
  void record(Side S, const std::string &Name, uint64_t SelfFp,
              uint64_t CfgFp, const std::set<DepKey> &Deps,
              std::optional<std::string> Blob);

  IncrConfig Cfg;
  engine::VerifEnv &Env;
  const creusot::PearliteSpecTable *Contracts;
  Level Local, Shared;
  /// The local store's index as this run sees it, the entries this run
  /// changed (written at flush) and the records they superseded (removed
  /// at flush).
  std::map<ObligationId, IndexEntry> Index;
  std::set<ObligationId> IndexTouched;
  std::vector<CacheKey> Superseded;
  /// Shared-store records this run looked up or wrote (empty when absent),
  /// so a put knows what it replaces without a second get; its keys are
  /// spared by the run's GC.
  std::map<CacheKey, std::optional<StoredObligation>> SharedSeen;
  std::vector<SavedQueryVerdict> LoadedSolver;
  DepGraph Graph;
  IncrRunStats Stats;
  uint64_t ConfigFp = 0;
  uint64_t LintConfigFp = 0;
  uint64_t SummaryConfigFp = 0;
  std::mutex Mu;
  std::map<DepKey, uint64_t> FpMemo;
  std::map<DepKey, EntitySig> SigMemo;
};

} // namespace incr
} // namespace gilr

#endif // GILR_INCR_SESSION_H

//===- solver/Flight.cpp ---------------------------------------------------===//

#include "solver/Flight.h"

#include "solver/Journal.h"
#include "support/Files.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <tuple>
#include <vector>

using namespace gilr;
using namespace gilr::flight;

std::atomic<uint8_t> flight::detail::Flags{0xFF};

namespace {

/// One buffered journal record: the rendered line plus its deterministic
/// sort key. \c Seq (global append order) only breaks ties between records
/// with identical keys, which a deterministic run never produces.
struct Buffered {
  std::string Obligation;
  char Side = '?';
  uint32_t QueryIdx = 0;
  uint8_t Kind = 0; ///< 0 cached, 1 query — cached records sort first.
  uint64_t Seq = 0;
  std::string Line;
};

/// Process-wide recorder state. The mutex guards everything below it; the
/// hot path (recorder disabled) never touches it.
struct RecorderState {
  std::mutex Mu;
  std::string JournalFile;
  std::vector<Buffered> Buf;
  uint64_t Seq = 0;
  uint64_t Dropped = 0;
  bool AtExitRegistered = false;
};

RecorderState &state() {
  // Leaked for the same reason as the metrics registry: the atexit flush
  // must be able to run after static destruction has begun.
  static RecorderState *S = new RecorderState;
  return *S;
}

/// Journal buffer cap: a runaway run stops buffering (and counts drops)
/// rather than exhausting memory. 2^20 records is far beyond any test or
/// bench workload.
constexpr std::size_t JournalBufCap = 1u << 20;

/// Per-thread obligation provenance installed by ObligationScope.
struct ThreadScope {
  std::string Name;
  char Side = '?';
  uint32_t NextIdx = 0;
};

ThreadScope &threadScope() {
  thread_local ThreadScope S;
  return S;
}

/// The provenance TimingSolver stamped on the query it just timed, read by
/// the QueryJournalSolver directly above it on the same thread.
struct LastProvenance {
  std::string Obligation;
  char Side = '?';
  uint32_t QueryIdx = 0;
};

LastProvenance &lastProv() {
  thread_local LastProvenance P;
  return P;
}

void appendRecord(Buffered B) {
  RecorderState &S = state();
  uint64_t Records = 0, Dropped = 0;
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    if (S.Buf.size() >= JournalBufCap) {
      ++S.Dropped;
      Dropped = 1;
    } else {
      B.Seq = S.Seq++;
      S.Buf.push_back(std::move(B));
      Records = 1;
    }
  }
  metrics::Registry::get().noteJournalActivity(Records, Dropped);
}

void applyOptions(const Options &O) {
  RecorderState &S = state();
  uint8_t F = (O.Timing ? 1 : 0) | (O.Journal ? 3 : 0);
  bool WantAtExit = false;
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    S.JournalFile =
        O.JournalFile.empty() ? std::string()
                              : files::expandPidPlaceholder(O.JournalFile);
    S.Buf.clear();
    S.Seq = 0;
    S.Dropped = 0;
    if (!S.JournalFile.empty() && !S.AtExitRegistered) {
      S.AtExitRegistered = true;
      WantAtExit = true;
    }
  }
  detail::Flags.store(F, std::memory_order_relaxed);
  if (WantAtExit)
    std::atexit([] { flight::flushJournal(); });
}

Options optionsFromEnv() {
  Options O;
  const char *Journal = std::getenv("GILR_JOURNAL");
  if (Journal && *Journal) {
    O.Journal = O.Timing = true;
    O.JournalFile = Journal;
  }
  const char *Timing = std::getenv("GILR_TIMING");
  if (Timing && *Timing && std::string(Timing) != "0")
    O.Timing = true;
  return O;
}

} // namespace

uint8_t flight::detail::initFromEnvSlow() {
  static std::once_flag Once;
  std::call_once(Once, [] { applyOptions(optionsFromEnv()); });
  return Flags.load(std::memory_order_relaxed);
}

void flight::configure(const Options &O) { applyOptions(O); }

void flight::configureFromEnv() { applyOptions(optionsFromEnv()); }

void flight::reset() { applyOptions(Options()); }

//===----------------------------------------------------------------------===//
// Provenance
//===----------------------------------------------------------------------===//

ObligationScope::ObligationScope(std::string Name, char Side) {
  ThreadScope &S = threadScope();
  PrevName = std::move(S.Name);
  PrevSide = S.Side;
  PrevNextIdx = S.NextIdx;
  S.Name = std::move(Name);
  S.Side = Side;
  S.NextIdx = 0;
}

ObligationScope::~ObligationScope() {
  ThreadScope &S = threadScope();
  S.Name = std::move(PrevName);
  S.Side = PrevSide;
  S.NextIdx = PrevNextIdx;
}

//===----------------------------------------------------------------------===//
// Decorator layers
//===----------------------------------------------------------------------===//

ChainOutcome TimingSolver::solve(const ChainQuery &Q) {
  ThreadScope &S = threadScope();
  LastProvenance &P = lastProv();
  P.Obligation = S.Name;
  P.Side = S.Side;
  P.QueryIdx = S.NextIdx++;

  uint64_t T0 = trace::nowNs();
  ChainOutcome O = Next.solve(Q);
  O.DurationNs = trace::nowNs() - T0;

  metrics::SolverQuerySample Sample;
  Sample.Obligation = P.Obligation;
  Sample.Side = P.Side;
  Sample.QueryIdx = P.QueryIdx;
  Sample.PcSize = (uint32_t)Q.Work.size();
  uint64_t Fp2Unused;
  Q.stableFingerprint(Sample.Fp, Fp2Unused);
  Sample.Verdict = (uint8_t)O.R;
  Sample.CacheHit = O.CacheHit;
  Sample.DurationNs = O.DurationNs;
  metrics::Registry::get().recordSolverQuery(Sample);
  return O;
}

ChainOutcome QueryJournalSolver::solve(const ChainQuery &Q) {
  ChainOutcome O = Next.solve(Q);
  const LastProvenance &P = lastProv();

  journal::Record R;
  R.RecKind = journal::Record::Kind::Query;
  R.Obligation = P.Obligation;
  R.Side = P.Side;
  R.QueryIdx = P.QueryIdx;
  R.PcSize = (uint32_t)Q.Work.size();
  R.CacheHit = O.CacheHit;
  R.Verdict = (uint8_t)O.R;
  R.DurationNs = O.DurationNs;
  R.Branches = O.Branches;
  R.TheoryChecks = O.TheoryChecks;
  R.MaxBranches = Q.MaxBranches;
  Q.stableFingerprint(R.Fp, R.Fp2);
  R.Assertions = Q.Work;

  Buffered B;
  B.Obligation = P.Obligation;
  B.Side = P.Side;
  B.QueryIdx = P.QueryIdx;
  B.Kind = 1;
  B.Line = journal::renderRecord(R);
  appendRecord(std::move(B));
  return O;
}

void flight::noteCachedObligation(const std::string &Name, char Side,
                                  bool Ok) {
  if (!journalEnabled())
    return;
  journal::Record R;
  R.RecKind = journal::Record::Kind::Cached;
  R.Obligation = Name;
  R.Side = Side;
  R.CachedOk = Ok;

  Buffered B;
  B.Obligation = Name;
  B.Side = Side;
  B.Kind = 0;
  B.Line = journal::renderRecord(R);
  appendRecord(std::move(B));
}

//===----------------------------------------------------------------------===//
// Journal rendering / flushing
//===----------------------------------------------------------------------===//

std::string flight::journalText() {
  RecorderState &S = state();
  std::vector<Buffered> Sorted;
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    Sorted = S.Buf;
  }
  std::sort(Sorted.begin(), Sorted.end(),
            [](const Buffered &A, const Buffered &B) {
              return std::tie(A.Obligation, A.Side, A.Kind, A.QueryIdx,
                              A.Seq) < std::tie(B.Obligation, B.Side, B.Kind,
                                                B.QueryIdx, B.Seq);
            });
  std::size_t Bytes = 16;
  for (const Buffered &B : Sorted)
    Bytes += B.Line.size() + 1;
  std::string Out;
  Out.reserve(Bytes);
  Out += journal::journalMagic();
  Out += '\n';
  for (const Buffered &B : Sorted) {
    Out += B.Line;
    Out += '\n';
  }
  return Out;
}

uint64_t flight::journalRecordCount() {
  RecorderState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mu);
  return S.Buf.size();
}

uint64_t flight::journalDroppedCount() {
  RecorderState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mu);
  return S.Dropped;
}

bool flight::flushJournal() {
  std::string Path;
  {
    RecorderState &S = state();
    std::lock_guard<std::mutex> Lock(S.Mu);
    Path = S.JournalFile;
  }
  if (Path.empty())
    return true;
  return files::writeFile(Path, journalText(), "solver query journal");
}

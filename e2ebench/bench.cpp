//===- e2ebench/bench.cpp - End-to-end benchmark of the gilr pipeline ------===//
///
/// \file
/// One measured pipeline for the hybrid verifier. Inputs are the committed
/// `.gilr` corpus (examples/corpus/) and edits generated from the seed; the
/// verifier only ever receives module text. Two workloads:
///
///   cold-corpus  serial cold verification of all 7 modules, one fresh
///                child process per pass (no intern table, memo or query
///                cache carries over), each module against a new proof
///                store and then re-verified unchanged and after a seeded
///                edit; plus the paper's E2 pair (push_front_node +
///                pop_front_node), cold, in children of its own.
///   daemon-3c    one gilrd server (separate process) serving 3 closed-loop
///                clients over its Unix socket; ~1 request in 5 is edited.
///
/// Every verification op follows the `gilr verify` path of
/// src/frontend/Cli.cpp by calling each layer's public entry point and
/// timing the call (parse, lemma registration, contract encoding, proof
/// store load, scheduled run, store flush). Every op's exit code and
/// per-function `ok` flags are compared, in order, with
/// examples/corpus/expected/*.json; a mismatch counts as a failed op.
///
/// With --trace 1 the benchmark records its own spans around those calls
/// (kept in memory, written to --out at the end), turns on the solver's
/// flight-recorder timing and aggregate tracing, and reports per-layer
/// self times and counters instead of the end-to-end metrics.
///
/// The last stdout line is the result object
///   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}.
/// Usage: see e2ebench/README.md (run.py builds and invokes this binary).
///
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"
#include "hybrid/Driver.h"
#include "incr/Session.h"
#include "sched/Scheduler.h"
#include "server/Server.h"
#include "solver/Flight.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace gilr;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "e2ebench: %s\n", Msg.c_str());
  std::exit(2);
}

std::string fmtNum(double V) {
  if (!std::isfinite(V))
    V = 0.0;
  char Buf[40];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

/// Linear-interpolated quantile of \p V (0 <= Q <= 1); 0 for no samples.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Pos);
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// Interquartile mean: the mean of \p V without its lowest and highest
/// quarter.
double iqMean(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  std::size_t Cut = V.size() / 4;
  double S = 0;
  for (std::size_t I = Cut; I < V.size() - Cut; ++I)
    S += V[I];
  return S / static_cast<double>(V.size() - 2 * Cut);
}

/// The highest tail quantile, at most \p Q, that leaves at least ten samples
/// beyond it (the p99 only counts with 1000+ samples).
double tailQuantile(const std::vector<double> &V, double Q) {
  if (V.empty())
    return 0.0;
  double N = static_cast<double>(V.size());
  return quantile(V, std::max(0.5, std::min(Q, 1.0 - 10.0 / N)));
}

bool readText(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

//===----------------------------------------------------------------------===//
// Options
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Corpus = "examples/corpus";
  std::string Work = ".bench_work";
  std::string Out = ".bench_out";
  std::string Child;     ///< Internal child mode (pass, e2, prep, server).
  std::string Socket;    ///< server child: socket path.
  std::string CacheDir;  ///< server child: shared cache directory.
  bool SelfTest = false; ///< Only run the correctness-gate self-test.
};

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Val = [&]() -> std::string {
      if (I + 1 >= Argc)
        die("missing value for " + A);
      return Argv[++I];
    };
    if (A == "--workload")
      O.Workload = Val();
    else if (A == "--seed")
      O.Seed = std::stoull(Val());
    else if (A == "--seconds")
      O.Seconds = std::stod(Val());
    else if (A == "--trace")
      O.Trace = Val() == "1";
    else if (A == "--corpus")
      O.Corpus = Val();
    else if (A == "--work")
      O.Work = Val();
    else if (A == "--out")
      O.Out = Val();
    else if (A == "--child")
      O.Child = Val();
    else if (A == "--socket")
      O.Socket = Val();
    else if (A == "--cache-dir")
      O.CacheDir = Val();
    else if (A == "--selftest")
      O.SelfTest = true;
    else
      die("unknown argument " + A);
  }
  return O;
}

//===----------------------------------------------------------------------===//
// Build guard
//===----------------------------------------------------------------------===//

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool OptimisedBuild = true;
#else
constexpr bool OptimisedBuild = false;
#endif

std::string buildInfo() {
  return std::string("build_type=") + E2EBENCH_BUILD_TYPE +
         " compiler=" + E2EBENCH_COMPILER +
         " optimised=" + (OptimisedBuild ? "yes" : "no") + " ndebug=" +
#ifdef NDEBUG
         "yes";
#else
         "no";
#endif
}

//===----------------------------------------------------------------------===//
// Corpus and the correctness gate
//===----------------------------------------------------------------------===//

using Verdicts = std::vector<std::pair<std::string, bool>>;

/// The golden verdict of one op: exit code and each side's (func, ok) list
/// in report order.
struct Golden {
  int Exit = 0;
  Verdicts Unsafe, Safe;
};

struct CorpusModule {
  std::string Name;
  std::string Text;
  Golden Expected;
};

/// The paper's E2 experiment: the two LinkedList node functions of the
/// functional-correctness module.
const char *E2Module = "linkedlist_functional";
const std::vector<std::string> E2Funcs = {"LinkedList::push_front_node",
                                          "LinkedList::pop_front_node"};

Verdicts verdictsFromJson(const json::ValuePtr &Arr) {
  Verdicts V;
  if (!Arr || !Arr->isArray())
    return V;
  for (const json::ValuePtr &E : Arr->Arr) {
    json::ValuePtr F = E->get("func"), Ok = E->get("ok");
    V.push_back({F && F->isString() ? F->Str : "?",
                 Ok && Ok->K == json::Value::Kind::Bool && Ok->B});
  }
  return V;
}

std::vector<CorpusModule> loadCorpus(const std::string &Dir) {
  std::vector<CorpusModule> Mods;
  std::error_code EC;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, EC))
    if (E.path().extension() == ".gilr") {
      CorpusModule M;
      M.Name = E.path().stem().string();
      if (!readText(E.path().string(), M.Text))
        die("cannot read " + E.path().string());
      std::string GText;
      std::string GPath = Dir + "/expected/" + M.Name + ".json";
      if (!readText(GPath, GText))
        die("missing golden report " + GPath);
      json::ValuePtr G = json::parse(GText);
      if (!G || !G->get("exit") || !G->at("report.unsafe_side"))
        die("malformed golden report " + GPath);
      M.Expected.Exit = static_cast<int>(G->get("exit")->numberOr(-1));
      M.Expected.Unsafe = verdictsFromJson(G->at("report.unsafe_side"));
      M.Expected.Safe = verdictsFromJson(G->at("report.safe_side"));
      Mods.push_back(std::move(M));
    }
  if (EC || Mods.size() != 7)
    die("expected the 7 corpus modules under " + Dir);
  std::sort(Mods.begin(), Mods.end(),
            [](const CorpusModule &A, const CorpusModule &B) {
              return A.Name < B.Name;
            });
  return Mods;
}

const CorpusModule &findModule(const std::vector<CorpusModule> &Mods,
                               const std::string &Name) {
  for (const CorpusModule &M : Mods)
    if (M.Name == Name)
      return M;
  die("no corpus module " + Name);
}

/// The golden verdict of the E2 op: the E2 functions' golden flags.
Golden e2Golden(const std::vector<CorpusModule> &Mods) {
  Golden G;
  for (const auto &V : findModule(Mods, E2Module).Expected.Unsafe)
    if (std::find(E2Funcs.begin(), E2Funcs.end(), V.first) != E2Funcs.end()) {
      G.Unsafe.push_back(V);
      if (!V.second)
        G.Exit = 1;
    }
  return G;
}

/// The correctness gate: exit code and every function's (name, ok), in
/// order. Returns "" on a match, else what differed.
std::string gateMismatch(const Golden &Want, int Exit, const Verdicts &Unsafe,
                         const Verdicts &Safe) {
  if (Exit != Want.Exit)
    return "exit " + std::to_string(Exit) + ", expected " +
           std::to_string(Want.Exit);
  auto Cmp = [](const Verdicts &Got, const Verdicts &Exp,
                const char *Side) -> std::string {
    if (Got.size() != Exp.size())
      return std::string(Side) + " side has " + std::to_string(Got.size()) +
             " functions, expected " + std::to_string(Exp.size());
    for (std::size_t I = 0; I < Got.size(); ++I)
      if (Got[I] != Exp[I])
        return std::string(Side) + " #" + std::to_string(I) + " " +
               Got[I].first + " ok=" + (Got[I].second ? "true" : "false") +
               ", expected " + Exp[I].first + " ok=" +
               (Exp[I].second ? "true" : "false");
    return "";
  };
  std::string W = Cmp(Unsafe, Want.Unsafe, "unsafe");
  return W.empty() ? Cmp(Safe, Want.Safe, "safe") : W;
}

//===----------------------------------------------------------------------===//
// Seeded edit generator
//===----------------------------------------------------------------------===//

/// splitmix64: derives independent streams (per client, per child) from the
/// one seed argument.
uint64_t mixSeed(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Serialises parse checks of generated edits (daemon clients run on
/// several threads).
std::mutex ParseCheckMu;

/// Fresh, verdict-preserving edits. Two kinds:
///   * `let`: an unused `let` in one safe client (re-proves that client's
///     Creusot obligation);
///   * `conj`: a trivially true pure conjunct added to one spec's
///     precondition (the semantic-salvage path).
/// Each edit is new (a per-generator counter in the binder / constant), so
/// its fingerprints were never stored; every edit is parse-checked before
/// use.
class Editor {
public:
  explicit Editor(uint64_t Seed) : Rng(mixSeed(Seed)) {}

  bool chance(double P) {
    return std::uniform_real_distribution<double>(0.0, 1.0)(Rng) < P;
  }
  std::size_t pick(std::size_t N) {
    return std::uniform_int_distribution<std::size_t>(0, N - 1)(Rng);
  }
  std::mt19937_64 &rng() { return Rng; }

  /// Applies one fresh edit to \p Text (module \p Name); dies when no
  /// parse-clean edit exists.
  void edit(const std::string &Name, std::string &Text) {
    std::vector<std::size_t> Clients = lineStarts(Text, "client ");
    std::vector<std::size_t> Pres = specPres(Text);
    for (int Attempt = 0; Attempt < 8; ++Attempt) {
      bool UseLet = !Clients.empty() && (Pres.empty() || chance(0.5));
      std::string Cand = Text;
      ++Counter;
      std::string K = std::to_string(Counter);
      if (UseLet) {
        std::size_t At = Cand.find('\n', Clients[pick(Clients.size())]);
        Cand.insert(At + 1, "  let e2ebench_pad" + K + " = " +
                                std::to_string(pick(1000)) + ";\n");
      } else {
        std::size_t At = Pres[pick(Pres.size())];
        std::size_t Semi = Cand.find(";\n", At);
        std::string Pre = Cand.substr(At + 6, Semi - (At + 6));
        Cand.replace(At + 6, Semi - (At + 6),
                     "(star " + Pre + " (pure (<= 0 " + K + ")))");
      }
      std::lock_guard<std::mutex> Lock(ParseCheckMu);
      if (frontend::parseString(Name + ".gilr", Cand).ok()) {
        Text = std::move(Cand);
        return;
      }
    }
    die("no parse-clean edit found for module " + Name);
  }

private:
  static std::vector<std::size_t> lineStarts(const std::string &Text,
                                             const std::string &Prefix) {
    std::vector<std::size_t> Out;
    for (std::size_t P = 0; P < Text.size();) {
      if (Text.compare(P, Prefix.size(), Prefix) == 0)
        Out.push_back(P);
      std::size_t Nl = Text.find('\n', P);
      if (Nl == std::string::npos)
        break;
      P = Nl + 1;
    }
    return Out;
  }
  /// Offsets of every "  pre " line inside a spec block.
  static std::vector<std::size_t> specPres(const std::string &Text) {
    std::vector<std::size_t> Out;
    for (std::size_t S : lineStarts(Text, "spec ")) {
      std::size_t End = Text.find("\n}", S);
      std::size_t P = Text.find("\n  pre ", S);
      if (P != std::string::npos && P < End)
        Out.push_back(P + 1);
    }
    return Out;
  }

  std::mt19937_64 Rng;
  uint64_t Counter = 0;
};

//===----------------------------------------------------------------------===//
// Spans and per-op records
//===----------------------------------------------------------------------===//

/// One recorded span: [Start, End] in ms since the op began; Parent is an
/// index into the op's span list (-1 = the op root).
struct Span {
  std::string Name;
  double Start = 0, End = 0;
  int Parent = -1;
};

/// One measured operation: a module verification (class 'c' cold, 'w'
/// unchanged, 'e' edited) or an E2 run ('2').
struct OpRecord {
  std::string Module;
  char Class = 'w';
  double Ms = 0;       ///< Op latency.
  double RunMs = 0;    ///< HybridDriver::run portion (E2 ops).
  bool Traced = false; ///< Spans/counters recorded for this op.
  int Exit = 0;
  Verdicts Unsafe, Safe;
  std::string Mismatch; ///< Gate failure ("" = correct).
  std::map<std::string, double> Layers;
  std::vector<Span> Spans;
};

/// Records spans of one op on the calling thread. Disabled = no-ops.
class OpTracer {
public:
  OpTracer(bool On, Clock::time_point T0) : On(On), T0(T0) {}
  int open(const std::string &Name) {
    if (!On)
      return -1;
    Spans.push_back({Name, msBetween(T0, Clock::now()), 0,
                     Stack.empty() ? -1 : Stack.back()});
    Stack.push_back(static_cast<int>(Spans.size() - 1));
    return Stack.back();
  }
  void close(int Idx) {
    if (!On || Idx < 0)
      return;
    Spans[Idx].End = msBetween(T0, Clock::now());
    Stack.pop_back();
  }
  /// A child of \p Parent known only by its duration (a layer's own
  /// measurement, e.g. VerifyReport::Seconds); laid out after the
  /// previous synthetic sibling.
  void addMeasured(int Parent, const std::string &Name, double Ms) {
    if (!On || Parent < 0 || Ms <= 0)
      return;
    double Start = Spans[Parent].Start;
    for (const Span &S : Spans)
      if (S.Parent == Parent)
        Start = std::max(Start, S.End);
    Spans.push_back({Name, Start, Start + Ms, Parent});
  }
  std::vector<Span> take() { return std::move(Spans); }

private:
  bool On;
  Clock::time_point T0;
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// Turns the solver flight recorder's timing layer and the aggregate
/// tracer on or off (between ops), and clears the process-wide counters so
/// each traced op reports its own deltas.
void setLayerTracing(bool On) {
  flight::Options FO;
  FO.Timing = On;
  flight::configure(FO);
  trace::Options TO;
  TO.M = On ? trace::Mode::Text : trace::Mode::Off;
  trace::configure(TO);
  metrics::Registry::get().reset();
}

/// Solver-layer counters of the op just finished (flight timing layer and
/// SolverStats), into \p L.
void collectSolverLayers(std::map<std::string, double> &L) {
  metrics::SolverQueriesReport Q =
      metrics::Registry::get().solverQueriesReport();
  const SolverStats &S = metrics::solverStats();
  L["solver.busy_ms"] += Q.TotalNs / 1e6;
  L["solver.queries"] += Q.Queries;
  L["solver.cache_hits"] += Q.CacheHits;
  L["solver.unknowns"] += S.UnknownResults;
  L["solver.branches"] += S.Branches;
  L["solver.theory_checks"] += S.TheoryChecks;
  L["solver.entail_repeats"] += S.EntailRepeats;
  L["solver.max_query_ms"] =
      std::max(L["solver.max_query_ms"], Q.MaxNs / 1e6);
}

//===----------------------------------------------------------------------===//
// One in-process verification op (the `gilr verify` path)
//===----------------------------------------------------------------------===//

/// Verifies \p Text as module \p Name and gates the outcome against
/// \p Want. With \p Store, the run is incremental against that proof store
/// (`gilr verify --incr-store`). \p OnlyFuncs restricts the unsafe side and
/// drops clients (the E2 op).
OpRecord verifyModule(const std::string &Name, const std::string &Text,
                      const std::string &Store, bool Traced,
                      const Golden &Want,
                      const std::vector<std::string> *OnlyFuncs = nullptr) {
  OpRecord R;
  R.Module = Name;
  R.Traced = Traced;
  if (Traced)
    setLayerTracing(true);
  const Clock::time_point T0 = Clock::now();
  OpTracer T(Traced, T0);
  std::map<std::string, double> &L = R.Layers;

  int Idx = T.open("frontend.parse");
  frontend::ParseResult P = frontend::parseString(Name + ".gilr", Text);
  T.close(Idx);
  L["frontend.parse_ms"] = msBetween(T0, Clock::now());
  L["frontend.bytes"] = static_cast<double>(Text.size());
  if (!P.ok()) {
    R.Ms = msBetween(T0, Clock::now());
    R.Exit = 3;
    R.Mismatch = gateMismatch(Want, R.Exit, {}, {});
    if (Traced)
      setLayerTracing(false);
    return R;
  }
  frontend::Module &M = *P.Mod;

  Idx = T.open("engine.lemma");
  Clock::time_point C0 = Clock::now();
  uint64_t Q0 = metrics::solverStats().SatQueries;
  std::vector<std::string> Errors = M.registerLemmas();
  L["engine.lemma_queries"] = metrics::solverStats().SatQueries - Q0;
  L["engine.lemma_ms"] = msBetween(C0, Clock::now());
  T.close(Idx);

  engine::VerifEnv Env = M.env();
  hybrid::HybridDriver Driver(Env, M.Contracts);
  std::vector<std::string> UnsafeFuncs = M.verifyFuncs();
  std::vector<creusot::SafeFn> Clients = M.verifyClients();
  if (M.VerifyList.empty()) {
    UnsafeFuncs.clear();
    for (const auto &KV : M.Prog.Funcs)
      UnsafeFuncs.push_back(KV.first);
    Clients = M.Clients;
  }
  if (OnlyFuncs) {
    UnsafeFuncs = *OnlyFuncs;
    Clients.clear();
  }

  Idx = T.open("hybrid.encode");
  C0 = Clock::now();
  for (const std::string &Fn : UnsafeFuncs)
    if (!M.Specs.lookup(Fn) && M.Contracts.lookup(Fn))
      if (Outcome<Unit> E = Driver.encodeAndRegister(Fn); !E.ok())
        Errors.push_back("encode " + Fn + ": " + E.error());
  L["hybrid.encode_ms"] = msBetween(C0, Clock::now());
  T.close(Idx);

  // HybridDriver::run, spelled out through its public layers as
  // sched/Scheduler.cpp does, so the store load and flush are timed apart.
  sched::SchedulerConfig SC;
  SC.Threads = 1;
  SC.StableCacheKeys = !Store.empty();
  hybrid::HybridReport Report;
  incr::IncrRunStats St;
  sched::CacheStatsSnapshot CS;
  int SchedIdx = -1;
  const Clock::time_point Run0 = Clock::now();
  {
    sched::Scheduler Sch(SC);
    std::optional<incr::Session> Sess;
    if (!Store.empty()) {
      incr::IncrConfig IC;
      IC.Enabled = true;
      IC.StorePath = Store;
      Idx = T.open("incr.load");
      C0 = Clock::now();
      Sess.emplace(IC, Env, &M.Contracts);
      Sch.preloadCache(Sess->solverEntriesToLoad());
      L["incr.load_ms"] = msBetween(C0, Clock::now());
      T.close(Idx);
    }
    SchedIdx = T.open("sched");
    Report = Sch.runHybrid(Env, M.Contracts, UnsafeFuncs, Clients,
                           Sess ? &*Sess : nullptr);
    T.close(SchedIdx);
    if (Sess) {
      Idx = T.open("incr.flush");
      C0 = Clock::now();
      Sess->saveSolverEntries(Sch.exportCacheEntries());
      Sess->flush();
      L["incr.flush_ms"] = msBetween(C0, Clock::now());
      T.close(Idx);
      St = Sess->stats();
    }
    CS = Sch.cacheStats();
  }
  R.RunMs = msBetween(Run0, Clock::now());
  R.Ms = msBetween(T0, Clock::now());

  if (!Report.Analysis.ok() || Report.Analysis.EntitiesBlocked > 0)
    R.Exit = 2;
  else if (!Report.ok() || !Errors.empty())
    R.Exit = 1;
  for (const engine::VerifyReport &V : Report.UnsafeSide)
    R.Unsafe.push_back({V.Func, V.Ok});
  for (const creusot::SafeReport &V : Report.SafeSide)
    R.Safe.push_back({V.Func, V.Ok});
  R.Mismatch = gateMismatch(Want, R.Exit, R.Unsafe, R.Safe);

  // Layer counters. Reports replayed from the store or triaged statically
  // did no proof work in this op, so they do not count as proved.
  metrics::AnalysisReport AR = metrics::Registry::get().analysisReport();
  metrics::InterprocReport IR = metrics::Registry::get().interprocReport();
  L["analysis.ms"] = (AR.Seconds + IR.Seconds) * 1e3;
  L["analysis.entities"] = AR.Entities;
  L["analysis.cached"] = AR.Cached;
  L["analysis.summaries_computed"] = IR.SummariesComputed;
  L["analysis.summaries_reused"] = IR.SummariesReused;
  L["analysis.triaged_static"] = IR.TriagedStatic;
  for (const engine::VerifyReport &V : Report.UnsafeSide)
    if (!V.Cached && !V.Static && !V.LintBlocked) {
      L["engine.verify_ms"] += V.Seconds * 1e3;
      L["engine.obligations"] += 1;
      L["engine.paths"] += V.PathsCompleted;
      L["engine.states"] += V.StatesExplored;
    }
  for (const creusot::SafeReport &V : Report.SafeSide)
    if (!V.Cached) {
      L["creusot.verify_ms"] += V.Seconds * 1e3;
      L["creusot.obligations"] += static_cast<double>(V.Obligations.size());
    }
  L["sched.jobs"] = static_cast<double>(UnsafeFuncs.size() + Clients.size());
  L["sched.cache_hits"] = static_cast<double>(CS.Hits);
  L["sched.cache_lookups"] = static_cast<double>(CS.Hits + CS.Misses);
  if (!Store.empty()) {
    L["incr.cached"] = St.cached();
    L["incr.verified"] = St.verified();
    L["incr.invalidated"] = St.Invalidated;
    L["incr.salvaged"] = St.salvaged();
    L["incr.salvage_queries"] = St.SalvageQueries;
    std::error_code EC;
    uintmax_t Bytes = fs::file_size(Store, EC);
    L["incr.store_bytes"] = EC ? 0.0 : static_cast<double>(Bytes);
  }
  if (Traced) {
    collectSolverLayers(L);
    // The run's inner layers, known by their own measurements: the
    // analysis pre-pass and each proof side, nested under the scheduler.
    T.addMeasured(SchedIdx, "analysis", L["analysis.ms"]);
    T.addMeasured(SchedIdx, "engine.verify", L["engine.verify_ms"]);
    T.addMeasured(SchedIdx, "creusot.verify", L["creusot.verify_ms"]);
    R.Spans = T.take();
    setLayerTracing(false);
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Op records across process boundaries
//===----------------------------------------------------------------------===//

std::string opToJson(const OpRecord &R) {
  std::string S = "{\"module\": \"" + jsonEscape(R.Module) +
                  "\", \"class\": \"" + std::string(1, R.Class) +
                  "\", \"ms\": " + fmtNum(R.Ms) +
                  ", \"run_ms\": " + fmtNum(R.RunMs) +
                  ", \"traced\": " + (R.Traced ? "true" : "false") +
                  ", \"mismatch\": \"" + jsonEscape(R.Mismatch) +
                  "\", \"layers\": {";
  bool First = true;
  for (const auto &KV : R.Layers) {
    S += (First ? "\"" : ", \"") + KV.first + "\": " + fmtNum(KV.second);
    First = false;
  }
  S += "}, \"spans\": [";
  for (std::size_t I = 0; I < R.Spans.size(); ++I) {
    const Span &Sp = R.Spans[I];
    S += (I ? ", [\"" : "[\"") + Sp.Name + "\", " + fmtNum(Sp.Start) + ", " +
         fmtNum(Sp.End) + ", " + std::to_string(Sp.Parent) + "]";
  }
  return S + "]}";
}

bool opFromJson(const json::Value &V, OpRecord &R) {
  json::ValuePtr M = V.get("module"), C = V.get("class"), Ms = V.get("ms");
  if (!M || !C || !Ms || C->Str.size() != 1)
    return false;
  R.Module = M->Str;
  R.Class = C->Str[0];
  R.Ms = Ms->numberOr(0);
  R.RunMs = V.get("run_ms") ? V.get("run_ms")->numberOr(0) : 0;
  R.Traced = V.get("traced") && V.get("traced")->B;
  R.Mismatch = V.get("mismatch") ? V.get("mismatch")->Str : "missing";
  if (json::ValuePtr L = V.get("layers"))
    for (const auto &KV : L->Obj)
      R.Layers[KV.first] = KV.second->numberOr(0);
  if (json::ValuePtr S = V.get("spans"))
    for (const json::ValuePtr &E : S->Arr)
      if (E->Arr.size() == 4)
        R.Spans.push_back({E->Arr[0]->Str, E->Arr[1]->numberOr(0),
                           E->Arr[2]->numberOr(0),
                           static_cast<int>(E->Arr[3]->numberOr(-1))});
  return true;
}

//===----------------------------------------------------------------------===//
// Child processes
//===----------------------------------------------------------------------===//

std::string SelfExe;

struct ChildResult {
  std::vector<std::string> Lines;
  int Status = -1;
  double PeakRssMb = 0;
  double WallMs = 0;
};

/// Runs this binary with \p Args, collecting its stdout lines. Waits for
/// the child and reports its peak RSS.
ChildResult runChild(const std::vector<std::string> &Args) {
  ChildResult CR;
  int Pipe[2];
  if (::pipe(Pipe) != 0)
    die("pipe failed");
  Clock::time_point T0 = Clock::now();
  pid_t Pid = ::fork();
  if (Pid < 0)
    die("fork failed");
  if (Pid == 0) {
    ::dup2(Pipe[1], 1);
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    std::vector<char *> Argv;
    Argv.push_back(const_cast<char *>(SelfExe.c_str()));
    for (const std::string &A : Args)
      Argv.push_back(const_cast<char *>(A.c_str()));
    Argv.push_back(nullptr);
    ::execv(SelfExe.c_str(), Argv.data());
    ::_exit(127);
  }
  ::close(Pipe[1]);
  std::string Buf;
  char Tmp[65536];
  ssize_t N;
  while ((N = ::read(Pipe[0], Tmp, sizeof Tmp)) > 0)
    Buf.append(Tmp, static_cast<std::size_t>(N));
  ::close(Pipe[0]);
  struct rusage RU {};
  ::wait4(Pid, &CR.Status, 0, &RU);
  CR.WallMs = msBetween(T0, Clock::now());
  CR.PeakRssMb = RU.ru_maxrss / 1024.0;
  std::istringstream SS(Buf);
  for (std::string Line; std::getline(SS, Line);)
    if (!Line.empty())
      CR.Lines.push_back(Line);
  return CR;
}

/// A seeded module order (one client round).
std::vector<std::size_t> permutation(std::size_t N, std::mt19937_64 &Rng) {
  std::vector<std::size_t> P(N);
  for (std::size_t I = 0; I < N; ++I)
    P[I] = I;
  std::shuffle(P.begin(), P.end(), Rng);
  return P;
}

/// `--child pass`: one cold pass over the corpus in this fresh process,
/// each module against a new proof store (`gilr verify --incr-store`), then
/// one unchanged and one edited re-verification of each module.
int childPass(const Options &O, const std::vector<CorpusModule> &Mods) {
  // A fixed module order: which module pays for warming the process-wide
  // tables is then the same in every pass. The seed drives the edits.
  Editor Ed(O.Seed);
  std::vector<std::size_t> Order(Mods.size());
  for (std::size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  auto Store = [&](const CorpusModule &M) {
    return O.Work + "/" + M.Name + ".prf";
  };
  Clock::time_point P0 = Clock::now();
  std::vector<OpRecord> Ops;
  for (std::size_t I : Order) {
    Ops.push_back(verifyModule(Mods[I].Name, Mods[I].Text, Store(Mods[I]),
                               O.Trace, Mods[I].Expected));
    Ops.back().Class = 'c';
  }
  double PassMs = msBetween(P0, Clock::now());
  for (std::size_t I : Order) {
    Ops.push_back(verifyModule(Mods[I].Name, Mods[I].Text, Store(Mods[I]),
                               O.Trace, Mods[I].Expected));
    Ops.back().Class = 'w';
  }
  for (std::size_t I : Order) {
    std::string Text = Mods[I].Text;
    Ed.edit(Mods[I].Name, Text);
    Ops.push_back(verifyModule(Mods[I].Name, Text, Store(Mods[I]), O.Trace,
                               Mods[I].Expected));
    Ops.back().Class = 'e';
  }
  for (const OpRecord &R : Ops)
    std::printf("%s\n", opToJson(R).c_str());
  std::printf("{\"pass_ms\": %s}\n", fmtNum(PassMs).c_str());
  return 0;
}

/// `--child e2`: the paper's E2 run, cold, in this fresh process.
int childE2(const Options &O, const std::vector<CorpusModule> &Mods) {
  const CorpusModule &M = findModule(Mods, E2Module);
  OpRecord R =
      verifyModule(M.Name, M.Text, "", O.Trace, e2Golden(Mods), &E2Funcs);
  R.Class = '2';
  std::printf("%s\n", opToJson(R).c_str());
  return 0;
}

/// `--child prep`: the cold-corpus set-up step — parse every module and
/// register its lemmas in a fresh process.
int childPrep(const std::vector<CorpusModule> &Mods) {
  for (const CorpusModule &M : Mods) {
    frontend::ParseResult P = frontend::parseString(M.Name + ".gilr", M.Text);
    if (!P.ok())
      die("corpus module " + M.Name + " does not parse");
    P.Mod->registerLemmas();
  }
  return 0;
}

server::Server *ServerInstance = nullptr;
void onTerm(int) {
  if (ServerInstance)
    ServerInstance->requestStopAsync();
}

/// `--child server`: a gilrd server on --socket with --cache-dir.
int childServer(const Options &O) {
  server::ServerConfig Cfg;
  Cfg.SocketPath = O.Socket;
  Cfg.CacheDir = O.CacheDir;
  server::Server S(Cfg);
  std::string Err;
  if (!S.start(Err))
    die("server: " + Err);
  ServerInstance = &S;
  ::signal(SIGTERM, onTerm);
  S.serve();
  return 0;
}

//===----------------------------------------------------------------------===//
// Daemon client
//===----------------------------------------------------------------------===//

/// One client connection speaking gilr-server-v1 NDJSON.
class Conn {
public:
  explicit Conn(const std::string &Path) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un A{};
    A.sun_family = AF_UNIX;
    std::strncpy(A.sun_path, Path.c_str(), sizeof(A.sun_path) - 1);
    if (Fd < 0 || ::connect(Fd, reinterpret_cast<sockaddr *>(&A),
                            sizeof A) != 0) {
      if (Fd >= 0)
        ::close(Fd);
      Fd = -1;
    }
  }
  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;

  bool ok() const { return Fd >= 0; }

  /// Sends \p Req and returns the terminal (result/error) event for \p Id,
  /// or nullptr on a transport error.
  json::ValuePtr call(const std::string &Id, const std::string &Req) {
    std::string Line = Req + "\n";
    for (std::size_t Off = 0; Off < Line.size();) {
      ssize_t N = ::write(Fd, Line.data() + Off, Line.size() - Off);
      if (N <= 0)
        return nullptr;
      Off += static_cast<std::size_t>(N);
    }
    for (;;) {
      std::size_t Nl;
      while ((Nl = Buf.find('\n')) == std::string::npos) {
        char Tmp[65536];
        ssize_t N = ::read(Fd, Tmp, sizeof Tmp);
        if (N <= 0)
          return nullptr;
        Buf.append(Tmp, static_cast<std::size_t>(N));
      }
      std::string Ev = Buf.substr(0, Nl);
      Buf.erase(0, Nl + 1);
      json::ValuePtr V = json::parse(Ev);
      if (!V || !V->get("event") || !V->get("id") || V->get("id")->Str != Id)
        continue;
      const std::string &K = V->get("event")->Str;
      if (K == "result" || K == "error")
        return V;
    }
  }

private:
  int Fd = -1;
  std::string Buf;
};

std::string request(const std::string &Id, const std::string &Method,
                    const std::string &Name, const std::string &Module,
                    const std::string &Client) {
  std::string S = std::string("{\"gilr\": \"") + server::protocolVersion() +
                  "\", \"id\": \"" + jsonEscape(Id) + "\", \"method\": \"" +
                  Method + "\"";
  if (!Module.empty())
    S += ", \"name\": \"" + jsonEscape(Name) + "\", \"module\": \"" +
         jsonEscape(Module) + "\", \"client\": \"" + jsonEscape(Client) +
         "\"";
  return S + "}";
}

/// Gates and records one verify result event as an op: latency is what
/// the client saw; service time is the server's own `seconds`; the rest
/// is queueing (the engine lock and admission) and transport.
OpRecord daemonOp(const std::string &Module, char Class, double Ms,
                  const json::ValuePtr &Ev, const Golden &Want) {
  OpRecord R;
  R.Module = Module;
  R.Class = Class;
  R.Ms = Ms;
  R.Traced = true;
  if (!Ev) {
    R.Mismatch = "transport error";
    return R;
  }
  if (Ev->get("event")->Str != "result" || !Ev->get("exit")) {
    R.Mismatch = "error event";
    return R;
  }
  R.Exit = static_cast<int>(Ev->get("exit")->numberOr(-1));
  R.Unsafe = verdictsFromJson(Ev->at("report.unsafe_side"));
  R.Safe = verdictsFromJson(Ev->at("report.safe_side"));
  R.Mismatch = gateMismatch(Want, R.Exit, R.Unsafe, R.Safe);
  std::map<std::string, double> &L = R.Layers;
  double Service = Ev->get("seconds") ? Ev->get("seconds")->numberOr(0) * 1e3
                                      : 0;
  L["server.service_ms"] = Service;
  L["server.queue_ms"] = std::max(0.0, Ms - Service);
  auto Num = [&](const char *Path) {
    json::ValuePtr V = Ev->at(Path);
    return V ? V->numberOr(0) : 0.0;
  };
  L["incr.cached"] = Num("incremental.cached");
  L["incr.verified"] = Num("incremental.verified");
  L["incr.invalidated"] = Num("incremental.invalidated");
  L["incr.salvaged"] =
      Num("incremental.salvaged") + Num("incremental.implied");
  L["incr.salvage_queries"] = Num("incremental.salvage_queries");
  L["analysis.summaries_computed"] = Num("interproc.summaries_computed");
  L["analysis.summaries_reused"] = Num("interproc.summaries_reused");
  L["analysis.triaged_static"] = Num("interproc.triaged_static");
  L["solver.queries"] = Num("solver.sat_queries");
  L["solver.branches"] = Num("solver.branches");
  L["solver.theory_checks"] = Num("solver.theory_checks");
  L["sched.jobs"] = static_cast<double>(R.Unsafe.size() + R.Safe.size());
  auto Flag = [](const json::ValuePtr &E, const char *K) {
    json::ValuePtr F = E->get(K);
    return F && F->B;
  };
  if (json::ValuePtr U = Ev->at("report.unsafe_side"))
    for (const json::ValuePtr &E : U->Arr)
      if (!Flag(E, "cached") && !Flag(E, "static")) {
        L["engine.verify_ms"] += E->get("seconds")->numberOr(0) * 1e3;
        L["engine.obligations"] += 1;
        L["engine.paths"] += E->get("paths")->numberOr(0);
        L["engine.states"] += E->get("states")->numberOr(0);
      }
  if (json::ValuePtr S = Ev->at("report.safe_side"))
    for (const json::ValuePtr &E : S->Arr)
      if (!Flag(E, "cached")) {
        L["creusot.verify_ms"] += E->get("seconds")->numberOr(0) * 1e3;
        json::ValuePtr Obs = E->get("obligations");
        L["creusot.obligations"] +=
            Obs ? static_cast<double>(Obs->Arr.size()) : 0.0;
      }
  // Client-side spans: the queue wait, then the server's service time
  // with the proof sides it reported nested inside.
  R.Spans.push_back({"server.queue", 0, Ms - Service, -1});
  R.Spans.push_back({"server.service", Ms - Service, Ms, -1});
  double At = Ms - Service;
  for (const char *N : {"engine.verify", "creusot.verify"}) {
    double D = L[std::string(N) + "_ms"];
    if (D > 0) {
      R.Spans.push_back({N, At, std::min(Ms, At + D), 1});
      At += D;
    }
  }
  return R;
}

/// The E2 variant of a module text: the verify list narrowed to the E2
/// functions (clients dropped), as a request body.
std::string e2Text(const std::string &Text) {
  std::size_t P = Text.find("\nverify ");
  std::size_t End = Text.find(";\n", P + 1);
  if (P == std::string::npos || End == std::string::npos)
    die("E2 module has no verify item");
  std::string List;
  for (const std::string &F : E2Funcs)
    List += (List.empty() ? "|" : ", |") + F + "|";
  return Text.substr(0, P + 1) + "verify " + List + Text.substr(End);
}

struct ServerProc {
  pid_t Pid = -1;
  std::string Socket;
};

ServerProc startServer(const Options &O, const std::string &Tag) {
  ServerProc SP;
  SP.Socket = O.Work + "/" + Tag + ".sock";
  std::string Cache = O.Work + "/" + Tag + "-cache";
  fs::create_directories(Cache);
  SP.Pid = ::fork();
  if (SP.Pid < 0)
    die("fork failed");
  if (SP.Pid == 0) {
    int Null = ::open("/dev/null", O_WRONLY);
    ::dup2(Null, 1);
    const char *Argv[] = {SelfExe.c_str(), "--child", "server", "--socket",
                          SP.Socket.c_str(), "--cache-dir", Cache.c_str(),
                          nullptr};
    ::execv(SelfExe.c_str(), const_cast<char **>(Argv));
    ::_exit(127);
  }
  for (int I = 0; I < 3000; ++I) {
    if (Conn(SP.Socket).ok())
      return SP;
    int St;
    if (::waitpid(SP.Pid, &St, WNOHANG) == SP.Pid)
      die("server exited during start-up");
    ::usleep(10000);
  }
  ::kill(SP.Pid, SIGKILL);
  ::waitpid(SP.Pid, nullptr, 0);
  die("server did not start");
}

/// Shuts the server down over the socket and waits for it; returns its
/// peak RSS in MB.
double stopServer(ServerProc &SP) {
  {
    Conn C(SP.Socket);
    if (C.ok())
      C.call("bye", request("bye", "shutdown", "", "", ""));
    else
      ::kill(SP.Pid, SIGTERM);
  }
  int St = 0;
  struct rusage RU {};
  ::wait4(SP.Pid, &St, 0, &RU);
  SP.Pid = -1;
  return RU.ru_maxrss / 1024.0;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct WorkloadResult {
  std::vector<OpRecord> Ops;
  std::vector<double> SetupS;  ///< One entry per set-up repetition.
  std::vector<double> RoundMs; ///< Complete passes over the 7 modules.
  double MeasuredS = 0;
  double PeakRssMb = 0;
  /// Traced runs: the same work untraced and traced (overhead).
  std::vector<double> UntracedMs, TracedMs;
  std::map<std::string, double> Extra; ///< Whole-run per-layer values.
};

constexpr int SetupReps = 5;
constexpr int E2PerPass = 2;

std::vector<OpRecord> parseOps(const ChildResult &CR, const char *What) {
  if (!WIFEXITED(CR.Status) || WEXITSTATUS(CR.Status) != 0)
    die(std::string(What) + " child failed");
  std::vector<OpRecord> Ops;
  for (const std::string &Line : CR.Lines) {
    json::ValuePtr V = json::parse(Line);
    OpRecord R;
    if (V && opFromJson(*V, R))
      Ops.push_back(std::move(R));
  }
  return Ops;
}

double passMs(const ChildResult &CR) {
  for (const std::string &Line : CR.Lines)
    if (json::ValuePtr V = json::parse(Line))
      if (json::ValuePtr P = V->get("pass_ms"))
        return P->numberOr(0);
  die("pass child reported no pass time");
}

WorkloadResult coldCorpus(const Options &O) {
  WorkloadResult W;
  std::vector<std::string> Base = {"--corpus", O.Corpus};
  for (int I = 0; I < SetupReps; ++I) {
    std::vector<std::string> A = Base;
    A.insert(A.end(), {"--child", "prep"});
    ChildResult CR = runChild(A);
    if (!WIFEXITED(CR.Status) || WEXITSTATUS(CR.Status) != 0)
      die("prep child failed");
    W.SetupS.push_back(CR.WallMs / 1e3);
  }
  auto Pass = [&](uint64_t Iter, bool Traced) {
    std::string Dir = O.Work + "/pass" + std::to_string(Iter);
    fs::remove_all(Dir);
    fs::create_directories(Dir);
    std::vector<std::string> A = Base;
    A.insert(A.end(), {"--child", "pass", "--work", Dir, "--seed",
                       std::to_string(mixSeed(O.Seed) + Iter), "--trace",
                       Traced ? "1" : "0"});
    ChildResult CR = runChild(A);
    std::vector<OpRecord> Ops = parseOps(CR, "pass");
    double P = passMs(CR);
    fs::remove_all(Dir);
    W.PeakRssMb = std::max(W.PeakRssMb, CR.PeakRssMb);
    // E2 is short and noisier than a pass, so each pass brings two samples.
    for (int I = 0; I < E2PerPass; ++I) {
      std::vector<std::string> E = Base;
      E.insert(E.end(), {"--child", "e2", "--trace", Traced ? "1" : "0"});
      ChildResult CE = runChild(E);
      std::vector<OpRecord> E2 = parseOps(CE, "e2");
      W.PeakRssMb = std::max(W.PeakRssMb, CE.PeakRssMb);
      Ops.insert(Ops.end(), E2.begin(), E2.end());
    }
    return std::make_pair(P, Ops);
  };
  Clock::time_point T0 = Clock::now();
  if (O.Trace) {
    // One untraced and one traced pass of the same inputs.
    for (int I = 0; I < 2; ++I) {
      auto [P, Ops] = Pass(0, I == 1);
      (I ? W.TracedMs : W.UntracedMs).push_back(P);
      W.Ops.insert(W.Ops.end(), Ops.begin(), Ops.end());
      W.RoundMs.push_back(P);
    }
  } else {
    for (uint64_t Iter = 0; msBetween(T0, Clock::now()) < O.Seconds * 1e3;
         ++Iter) {
      auto [P, Ops] = Pass(Iter, false);
      W.RoundMs.push_back(P);
      W.Ops.insert(W.Ops.end(), Ops.begin(), Ops.end());
    }
  }
  W.MeasuredS = msBetween(T0, Clock::now()) / 1e3;
  return W;
}

WorkloadResult daemon3c(const Options &O,
                        const std::vector<CorpusModule> &Mods) {
  WorkloadResult W;
  ServerProc SP;
  // Set-up: start a server on an empty cache dir and warm it with one pass.
  for (int Rep = 0; Rep < (O.Trace ? 1 : SetupReps); ++Rep) {
    if (SP.Pid > 0)
      stopServer(SP);
    Clock::time_point S0 = Clock::now();
    std::string Tag = "d" + std::to_string(::getpid()) + "-" +
                      std::to_string(Rep);
    SP = startServer(O, Tag);
    Conn C(SP.Socket);
    for (const CorpusModule &M : Mods) {
      std::string Id = "warm-" + M.Name;
      OpRecord R = daemonOp(
          M.Name, 'c', 0,
          C.call(Id, request(Id, "verify", M.Name, M.Text, "warmup")),
          M.Expected);
      if (!R.Mismatch.empty())
        die("daemon warm-up of " + M.Name + ": " + R.Mismatch);
    }
    W.SetupS.push_back(msBetween(S0, Clock::now()) / 1e3);
  }

  const int Clients = 3;
  const int TraceRounds = 20;
  const std::size_t E2Idx =
      static_cast<std::size_t>(&findModule(Mods, E2Module) - Mods.data());
  const Golden E2Want = e2Golden(Mods);
  std::vector<WorkloadResult> Per(Clients);
  Clock::time_point T0 = Clock::now();
  auto Deadline = T0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(O.Seconds));
  auto ClientMain = [&](int CI) {
    WorkloadResult &Me = Per[CI];
    Editor Ed(O.Seed * 16 + static_cast<uint64_t>(CI) + 1);
    Conn C(SP.Socket);
    std::vector<std::string> Texts;
    for (const CorpusModule &M : Mods)
      Texts.push_back(M.Text);
    std::string Who = "c" + std::to_string(CI);
    uint64_t N = 0;
    auto Call = [&](const std::string &Name, const std::string &Text,
                    char Class, const Golden &Want) {
      std::string Id = Who + "-" + std::to_string(N++);
      Clock::time_point Q0 = Clock::now();
      json::ValuePtr Ev =
          C.ok() ? C.call(Id, request(Id, "verify", Name, Text, Who))
                 : nullptr;
      Me.Ops.push_back(
          daemonOp(Name, Class, msBetween(Q0, Clock::now()), Ev, Want));
    };
    for (int Round = 0;; ++Round) {
      if (O.Trace ? Round >= TraceRounds : Clock::now() >= Deadline)
        break;
      Clock::time_point R0 = Clock::now();
      bool Complete = true;
      for (std::size_t I : permutation(Mods.size(), Ed.rng())) {
        if (!O.Trace && Clock::now() >= Deadline) {
          Complete = false;
          break;
        }
        char Class = 'w';
        if (Ed.chance(0.2)) {
          Ed.edit(Mods[I].Name, Texts[I]);
          Class = 'e';
        }
        Call(Mods[I].Name, Texts[I], Class, Mods[I].Expected);
      }
      if (!Complete)
        break;
      Me.RoundMs.push_back(msBetween(R0, Clock::now()));
      Call(E2Module, e2Text(Texts[E2Idx]), '2', E2Want);
    }
  };
  std::vector<std::thread> Threads;
  for (int CI = 0; CI < Clients; ++CI)
    Threads.emplace_back(ClientMain, CI);
  for (std::thread &T : Threads)
    T.join();
  W.MeasuredS = msBetween(T0, Clock::now()) / 1e3;
  for (WorkloadResult &P : Per) {
    W.Ops.insert(W.Ops.end(), P.Ops.begin(), P.Ops.end());
    W.RoundMs.insert(W.RoundMs.end(), P.RoundMs.begin(), P.RoundMs.end());
  }
  {
    Conn C(SP.Socket);
    json::ValuePtr St = C.ok() ? C.call("st", request("st", "stats", "", "",
                                                      ""))
                               : nullptr;
    if (St) {
      json::ValuePtr Res = St->get("resident_solver_entries");
      json::ValuePtr Rej = St->at("admission.rejected");
      W.Extra["server.resident_entries"] = Res ? Res->numberOr(0) : 0;
      W.Extra["server.rejected"] = Rej ? Rej->numberOr(0) : 0;
    }
  }
  W.PeakRssMb = stopServer(SP);
  return W;
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name, Unit;
  double Value;
};

std::vector<double> latencies(const std::vector<OpRecord> &Ops,
                              const std::string &Classes, bool UseRun = false) {
  std::vector<double> V;
  for (const OpRecord &R : Ops)
    if (Classes.find(R.Class) != std::string::npos)
      V.push_back(UseRun ? R.RunMs : R.Ms);
  return V;
}

std::vector<Metric> endToEnd(const std::string &Workload,
                             const WorkloadResult &W) {
  // The E2 op's HybridDriver::run time where the benchmark sees it; over
  // the daemon only the whole request is visible.
  bool E2Run = Workload != "daemon-3c";
  // Module ops: cold verifications in the cold workload, the request
  // stream (unchanged and edited) over the daemon.
  const std::string Mod = Workload == "cold-corpus" ? "c" : "we";
  std::vector<double> Lat = latencies(W.Ops, Mod);
  // Typical times are interquartile means over the run: the host's speed
  // moves between two levels in phases of seconds, which a mean averages
  // and a median of the two-level sample jumps between; dropping the outer
  // quarters keeps single stalls out. Tails are quantiles.
  return {
      {"setup_s", "s", median(W.SetupS)},
      {"peak_rss_mb", "MB", W.PeakRssMb},
      {"corpus_s", "s", iqMean(W.RoundMs) / 1e3},
      {"e2_s", "s", iqMean(latencies(W.Ops, "2", E2Run)) / 1e3},
      {"warm_ms", "ms", iqMean(latencies(W.Ops, "w"))},
      {"edit_ms", "ms", iqMean(latencies(W.Ops, "e"))},
      {"edit_p90_ms", "ms", quantile(latencies(W.Ops, "e"), 0.9)},
      {"rps", "1/s", static_cast<double>(Lat.size()) / W.MeasuredS},
      {"latency_p50_ms", "ms", median(Lat)},
      {"latency_p99_ms", "ms", tailQuantile(Lat, 0.99)},
  };
}

/// Per-layer counters summed over the traced ops (the determinism check
/// compares these across traced runs of one seed).
const std::vector<std::pair<const char *, const char *>> LayerCounters = {
    {"frontend.parse_ms", "ms"},
    {"frontend.bytes", "bytes"},
    {"engine.lemma_ms", "ms"},
    {"engine.lemma_queries", "count"},
    {"hybrid.encode_ms", "ms"},
    {"analysis.ms", "ms"},
    {"analysis.entities", "count"},
    {"analysis.cached", "count"},
    {"analysis.summaries_computed", "count"},
    {"analysis.summaries_reused", "count"},
    {"analysis.triaged_static", "count"},
    {"engine.verify_ms", "ms"},
    {"engine.obligations", "count"},
    {"engine.paths", "count"},
    {"engine.states", "count"},
    {"creusot.verify_ms", "ms"},
    {"creusot.obligations", "count"},
    {"solver.busy_ms", "ms"},
    {"solver.queries", "count"},
    {"solver.cache_hits", "count"},
    {"solver.branches", "count"},
    {"solver.theory_checks", "count"},
    {"solver.unknowns", "count"},
    {"solver.entail_repeats", "count"},
    {"sched.jobs", "count"},
    {"incr.load_ms", "ms"},
    {"incr.flush_ms", "ms"},
    {"incr.cached", "count"},
    {"incr.verified", "count"},
    {"incr.invalidated", "count"},
    {"incr.salvaged", "count"},
    {"incr.salvage_queries", "count"},
    {"server.service_ms", "ms"},
};

/// Counters expected to repeat exactly across traced runs of one seed.
const std::set<std::string> DeterministicCounters = {
    "frontend.bytes",        "engine.lemma_queries",
    "analysis.entities",     "analysis.cached",
    "analysis.summaries_computed", "analysis.summaries_reused",
    "analysis.triaged_static", "engine.obligations",
    "engine.paths",          "engine.states",
    "creusot.obligations",   "solver.queries",
    "solver.cache_hits",     "solver.branches",
    "solver.theory_checks",  "solver.unknowns",
    "solver.entail_repeats", "sched.jobs",
    "incr.cached",           "incr.verified",
    "incr.invalidated",      "incr.salvaged",
    "incr.salvage_queries",
};

/// The layers of the self-time table, in pipeline order.
const std::vector<std::string> TableLayers = {
    "frontend.parse", "engine.lemma",   "hybrid.encode",  "incr.load",
    "sched",          "analysis",       "engine.verify",  "creusot.verify",
    "incr.flush",     "server.queue",   "server.service", "other"};

/// Self time per layer over the traced ops: a span's duration minus the
/// durations of its children; `other` is op wall time no root span covers.
std::map<std::string, double> selfTimes(const std::vector<OpRecord> &Ops,
                                        double &WallMs) {
  std::map<std::string, double> Self;
  WallMs = 0;
  for (const OpRecord &R : Ops) {
    if (!R.Traced)
      continue;
    WallMs += R.Ms;
    std::vector<double> ChildMs(R.Spans.size(), 0.0);
    double Covered = 0;
    for (const Span &S : R.Spans) {
      if (S.Parent >= 0 && static_cast<std::size_t>(S.Parent) < ChildMs.size())
        ChildMs[S.Parent] += S.End - S.Start;
      else
        Covered += S.End - S.Start;
    }
    for (std::size_t I = 0; I < R.Spans.size(); ++I)
      Self[R.Spans[I].Name] +=
          std::max(0.0, R.Spans[I].End - R.Spans[I].Start - ChildMs[I]);
    Self["other"] += std::max(0.0, R.Ms - Covered);
  }
  return Self;
}

std::vector<Metric> perLayer(const WorkloadResult &W) {
  std::map<std::string, double> Sum;
  std::vector<double> Queue;
  double MaxQuery = 0;
  for (const OpRecord &R : W.Ops) {
    if (!R.Traced)
      continue;
    for (const auto &KV : R.Layers)
      Sum[KV.first] += KV.second;
    auto It = R.Layers.find("solver.max_query_ms");
    if (It != R.Layers.end())
      MaxQuery = std::max(MaxQuery, It->second);
    It = R.Layers.find("server.queue_ms");
    if (It != R.Layers.end())
      Queue.push_back(It->second);
  }
  std::vector<Metric> Out;
  for (const auto &[Name, Unit] : LayerCounters)
    Out.push_back({Name, Unit, Sum[Name]});
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  Out.push_back({"solver.hit_rate", "ratio",
                 Ratio(Sum["solver.cache_hits"], Sum["solver.queries"])});
  Out.push_back({"solver.max_query_ms", "ms", MaxQuery});
  Out.push_back({"sched.cache_hit_rate", "ratio",
                 Ratio(Sum["sched.cache_hits"], Sum["sched.cache_lookups"])});
  // The store size after the run: the largest store any traced op saw.
  double StoreBytes = 0;
  for (const OpRecord &R : W.Ops) {
    auto It = R.Layers.find("incr.store_bytes");
    if (R.Traced && It != R.Layers.end())
      StoreBytes = std::max(StoreBytes, It->second);
  }
  Out.push_back({"incr.store_bytes", "bytes", StoreBytes});
  Out.push_back({"server.queue_ms_p50", "ms", median(Queue)});
  Out.push_back({"server.queue_ms_p99", "ms", tailQuantile(Queue, 0.99)});
  // The server's own counts (a final `stats` request).
  for (const char *K : {"server.rejected", "server.resident_entries"}) {
    auto It = W.Extra.find(K);
    Out.push_back({K, "count", It != W.Extra.end() ? It->second : 0.0});
  }
  double WallMs = 0;
  std::map<std::string, double> Self = selfTimes(W.Ops, WallMs);
  for (const std::string &L : TableLayers)
    Out.push_back({"share." + L, "ratio", Ratio(Self[L], WallMs)});
  double Overhead = 0;
  if (!W.UntracedMs.empty() && !W.TracedMs.empty())
    Overhead = (median(W.TracedMs) / median(W.UntracedMs) - 1.0) * 100.0;
  Out.push_back({"trace.overhead_pct", "%", Overhead});
  return Out;
}

std::string layerTable(const std::string &Workload, const WorkloadResult &W) {
  double WallMs = 0;
  std::map<std::string, double> Self = selfTimes(W.Ops, WallMs);
  std::ostringstream OS;
  std::size_t Traced = 0;
  double SolverMs = 0;
  for (const OpRecord &R : W.Ops)
    if (R.Traced) {
      ++Traced;
      auto It = R.Layers.find("solver.busy_ms");
      SolverMs += It == R.Layers.end() ? 0 : It->second;
    }
  char Line[160];
  std::snprintf(Line, sizeof Line,
                "per-layer self time, %s: %zu traced ops, %.1f ms op wall\n",
                Workload.c_str(), Traced, WallMs);
  OS << Line;
  for (const std::string &L : TableLayers) {
    if (Self[L] <= 0)
      continue;
    std::snprintf(Line, sizeof Line, "  %-16s %10.2f ms %6.2f%%\n", L.c_str(),
                  Self[L], WallMs > 0 ? 100.0 * Self[L] / WallMs : 0.0);
    OS << Line;
  }
  if (SolverMs > 0) {
    std::snprintf(Line, sizeof Line,
                  "  (solver, nested in the layers above: %.2f ms, %.2f%%)\n",
                  SolverMs, WallMs > 0 ? 100.0 * SolverMs / WallMs : 0.0);
    OS << Line;
  }
  if (!W.UntracedMs.empty() && !W.TracedMs.empty()) {
    std::snprintf(Line, sizeof Line,
                  "  tracing overhead: %.1f ms traced vs %.1f ms untraced\n",
                  median(W.TracedMs), median(W.UntracedMs));
    OS << Line;
  }
  return OS.str();
}

/// Writes the traced run's spans and deterministic counters under --out.
/// When an earlier traced run of the same workload and seed left its
/// counters there, names every counter that drifted.
std::vector<std::string> writeTrace(const Options &O, const WorkloadResult &W,
                                    const std::vector<Metric> &Layers) {
  fs::create_directories(O.Out);
  std::string Stem =
      O.Out + "/" + O.Workload + "-seed" + std::to_string(O.Seed);
  std::string S = "[";
  uint64_t OpId = 0;
  for (const OpRecord &R : W.Ops) {
    ++OpId;
    if (!R.Traced)
      continue;
    S += (S.size() > 1 ? ",\n" : "\n") + std::string("{\"op\": ") +
         std::to_string(OpId) + ", \"module\": \"" + jsonEscape(R.Module) +
         "\", \"class\": \"" + R.Class + "\", \"ms\": " + fmtNum(R.Ms) +
         ", \"spans\": [";
    for (std::size_t I = 0; I < R.Spans.size(); ++I)
      S += (I ? ", " : "") + std::string("{\"name\": \"") + R.Spans[I].Name +
           "\", \"start_ms\": " + fmtNum(R.Spans[I].Start) +
           ", \"end_ms\": " + fmtNum(R.Spans[I].End) +
           ", \"parent\": " + std::to_string(R.Spans[I].Parent) +
           ", \"op\": " + std::to_string(OpId) + "}";
    S += "]}";
  }
  std::ofstream(Stem + "-spans.json") << S << "\n]\n";

  std::map<std::string, double> Now;
  for (const Metric &M : Layers)
    if (DeterministicCounters.count(M.Name))
      Now[M.Name] = M.Value;
  std::vector<std::string> Drift;
  std::string Prev;
  if (readText(Stem + "-counters.json", Prev))
    if (json::ValuePtr V = json::parse(Prev))
      for (const auto &[K, X] : Now)
        if (json::ValuePtr P = V->get(K); !P || P->numberOr(-1) != X)
          Drift.push_back(K);
  std::string C = "{";
  for (const auto &[K, X] : Now)
    C += (C.size() > 1 ? ", \"" : "\"") + K + "\": " + fmtNum(X);
  std::ofstream(Stem + "-counters.json") << C << "}\n";
  return Drift;
}

//===----------------------------------------------------------------------===//
// Gate self-test
//===----------------------------------------------------------------------===//

/// Verifies the smallest module and checks that the gate accepts its golden
/// verdict and rejects the same golden with one verdict flipped, and with
/// the exit code changed.
bool gateSelfTest(const std::vector<CorpusModule> &Mods, std::string &Why) {
  const CorpusModule &V = findModule(Mods, "vec");
  OpRecord R = verifyModule(V.Name, V.Text, "", false, V.Expected);
  if (!R.Mismatch.empty()) {
    Why = "gate rejects the golden verdict of vec: " + R.Mismatch;
    return false;
  }
  if (V.Expected.Unsafe.empty()) {
    Why = "vec golden has no verdicts";
    return false;
  }
  Golden Flip = V.Expected;
  Flip.Unsafe.back().second = !Flip.Unsafe.back().second;
  if (gateMismatch(Flip, R.Exit, R.Unsafe, R.Safe).empty()) {
    Why = "gate accepted a flipped verdict";
    return false;
  }
  Golden BadExit = V.Expected;
  BadExit.Exit = 1 - BadExit.Exit;
  if (gateMismatch(BadExit, R.Exit, R.Unsafe, R.Safe).empty()) {
    Why = "gate accepted a wrong exit code";
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  std::error_code EC;
  SelfExe = fs::read_symlink("/proc/self/exe", EC).string();
  if (EC)
    die("cannot locate this executable");

  if (O.Child == "server")
    return childServer(O);
  std::vector<CorpusModule> Mods = loadCorpus(O.Corpus);
  if (O.Child == "pass")
    return childPass(O, Mods);
  if (O.Child == "e2")
    return childE2(O, Mods);
  if (O.Child == "prep")
    return childPrep(Mods);
  if (!O.Child.empty())
    die("unknown child mode " + O.Child);

  // Build guard: numbers from an unoptimised build are not comparable.
  std::printf("e2ebench: %s\n", buildInfo().c_str());
  if (!OptimisedBuild)
    die("refusing to report from an unoptimised build (" + buildInfo() + ")");

  std::string Why;
  if (!gateSelfTest(Mods, Why))
    die("correctness-gate self-test failed: " + Why);
  if (O.SelfTest) {
    std::printf("e2ebench: gate self-test passed\n");
    return 0;
  }

  fs::create_directories(O.Work);
  WorkloadResult W;
  if (O.Workload == "cold-corpus")
    W = coldCorpus(O);
  else if (O.Workload == "daemon-3c")
    W = daemon3c(O, Mods);
  else
    die("unknown workload '" + O.Workload + "'");

  uint64_t Failed = 0;
  for (const OpRecord &R : W.Ops)
    if (!R.Mismatch.empty()) {
      if (++Failed <= 5)
        std::printf("e2ebench: failed op %s (%c): %s\n", R.Module.c_str(),
                    R.Class, R.Mismatch.c_str());
    }
  std::printf("e2ebench: %zu ops, %llu failed, ops_failed_share %s\n",
              W.Ops.size(), static_cast<unsigned long long>(Failed),
              fmtNum(W.Ops.empty() ? 1.0
                                   : static_cast<double>(Failed) /
                                         static_cast<double>(W.Ops.size()))
                  .c_str());

  std::vector<Metric> Ms;
  if (O.Trace) {
    Ms = perLayer(W);
    std::printf("%s", layerTable(O.Workload, W).c_str());
    std::vector<std::string> Drift = writeTrace(O, W, Ms);
    for (const std::string &D : Drift)
      std::printf("e2ebench: counter drifted across traced runs of seed "
                  "%llu: %s\n",
                  static_cast<unsigned long long>(O.Seed), D.c_str());
  } else {
    Ms = endToEnd(O.Workload, W);
  }
  std::string Out = "{\"correct\": " +
                    std::string(Failed == 0 && !W.Ops.empty() ? "true"
                                                              : "false") +
                    ", \"attempted\": " + std::to_string(W.Ops.size()) +
                    ", \"failed\": " + std::to_string(Failed) +
                    ", \"metrics\": {";
  for (std::size_t I = 0; I < Ms.size(); ++I)
    Out += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " +
           fmtNum(Ms[I].Value) + ", \"unit\": \"" + Ms[I].Unit + "\"}";
  std::printf("%s}}\n", Out.c_str());
  fs::remove_all(O.Work, EC);
  return 0;
}

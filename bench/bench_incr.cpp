//===- bench/bench_incr.cpp - Incremental verification ----------------------===//
//
// Measures the incremental proof cache (src/incr/) on the case studies:
//
//   * cold run (empty store) vs. warm run (every verdict replayed) wall
//     time, and the warm-run speedup — the headline number;
//   * edit-to-verdict latency: a warm run after a semantics-preserving spec
//     or lemma edit, measured twice — with semantic salvage (implication
//     queries keep the cached verdicts) and with blanket invalidation
//     (every dependent re-proves) — and their ratio, the salvage payoff;
//   * proof-store overhead: the wall time of opening a session on the warm
//     store (reading its solver-entry record) and of a warm run's
//     write-back, and the record bytes in the store directory.
//
// A warm run must re-prove zero obligations, a salvage run must re-prove
// zero and salvage all dependents, and the generated multi-module suite
// must show an edit-vs-blanket speedup of at least MinEditSpeedup; the
// benchmark fails (exit 1) otherwise, so CI can gate on it.
//
// Usage: bench_incr [out-file]
//   default: BENCH_incr.json
//
//===----------------------------------------------------------------------===//

#include "frontend/Corpus.h"
#include "hybrid/Driver.h"
#include "incr/Session.h"
#include "rmir/Builder.h"
#include "sched/Scheduler.h"
#include "support/StringUtils.h"
#include "support/Trace.h"
#include "sym/ExprBuilder.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

using namespace gilr;

namespace fs = std::filesystem;

namespace {

constexpr int Repetitions = 3;
/// The edit-vs-blanket ratio the generated multi-module suite must reach.
constexpr double MinEditSpeedup = 5.0;

/// One run of a suite through the incremental entry point: wall time plus
/// the session counters.
struct TimedRun {
  double Seconds = 0.0;
  bool Ok = true;
  incr::IncrRunStats Stats;
};

struct SuiteResult {
  std::string Name;
  std::size_t Obligations = 0;
  TimedRun Cold;
  TimedRun Warm;
  /// Warm runs after a semantics-preserving edit (only on suites with an
  /// edit lever): with semantic salvage, and with blanket invalidation.
  bool HasEdit = false;
  TimedRun Edit;
  TimedRun BlanketEdit;
  /// The suite's edit-vs-blanket ratio must reach this for ok() (0 = no
  /// gate).
  double EditSpeedupFloor = 0.0;
  double StoreLoadSeconds = 0.0;
  double StoreFlushSeconds = 0.0;
  std::size_t StoreBytes = 0;

  double warmSpeedup() const {
    return Warm.Seconds > 0.0 ? Cold.Seconds / Warm.Seconds : 0.0;
  }
  double editVsBlanketSpeedup() const {
    return HasEdit && Edit.Seconds > 0.0 ? BlanketEdit.Seconds / Edit.Seconds
                                         : 0.0;
  }
  bool ok() const {
    return Cold.Ok && Warm.Ok && (!HasEdit || (Edit.Ok && BlanketEdit.Ok)) &&
           Warm.Stats.verified() == 0 && Warm.Stats.cached() == Obligations &&
           editVsBlanketSpeedup() >= EditSpeedupFloor;
  }
};

double now() {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times one call of \p Run, which executes the suite through the
/// incremental entry point against \p Inc's store and fills the stats.
TimedRun timeRun(const std::function<bool(incr::IncrRunStats &)> &Run) {
  TimedRun R;
  double Start = now();
  R.Ok = Run(R.Stats);
  R.Seconds = now() - Start;
  return R;
}

/// Best-of-N repetition wrapper. \p Reset re-establishes the precondition
/// (e.g. deletes the store for a cold run) before every repetition.
TimedRun best(const std::function<void()> &Reset,
              const std::function<bool(incr::IncrRunStats &)> &Run) {
  TimedRun Best;
  for (int Rep = 0; Rep != Repetitions; ++Rep) {
    Reset();
    TimedRun R = timeRun(Run);
    if (Rep == 0 || R.Seconds < Best.Seconds) {
      Best.Seconds = R.Seconds;
      Best.Stats = R.Stats;
    }
    Best.Ok = Best.Ok && R.Ok;
  }
  return Best;
}

/// Store overhead, measured on the warm store the suite produced: opening
/// a session (load) and a fully warm run's write-back (flush), which must
/// leave every record as it was; plus the bytes of all record files.
void measureStoreOverhead(SuiteResult &Suite, const incr::IncrConfig &Inc,
                          const std::function<engine::VerifEnv()> &MakeEnv,
                          const creusot::PearliteSpecTable *Contracts) {
  for (int Rep = 0; Rep != Repetitions; ++Rep) {
    engine::VerifEnv Env = MakeEnv();
    double Start = now();
    incr::Session Sess(Inc, Env, Contracts);
    std::vector<SavedQueryVerdict> Entries = Sess.solverEntriesToLoad();
    double Load = now() - Start;
    Start = now();
    Sess.saveSolverEntries(std::move(Entries));
    bool Flushed = Sess.flush();
    double Flush = now() - Start;
    if (!Flushed)
      continue;
    if (Rep == 0 || Load < Suite.StoreLoadSeconds)
      Suite.StoreLoadSeconds = Load;
    if (Rep == 0 || Flush < Suite.StoreFlushSeconds)
      Suite.StoreFlushSeconds = Flush;
  }
  std::error_code EC;
  for (fs::recursive_directory_iterator It(Inc.StorePath, EC), End;
       !EC && It != End; It.increment(EC))
    if (It->is_regular_file())
      Suite.StoreBytes += It->file_size();
}

std::string fmt(double V, const char *Spec = "%.6f") {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), Spec, V);
  return Buf;
}

std::string renderRun(const TimedRun &R) {
  return "{\"seconds\": " + fmt(R.Seconds) +
         ", \"ok\": " + (R.Ok ? "true" : "false") +
         ", \"cached\": " + std::to_string(R.Stats.cached()) +
         ", \"reproved\": " + std::to_string(R.Stats.verified()) +
         ", \"invalidated\": " + std::to_string(R.Stats.Invalidated) +
         ", \"salvaged\": " + std::to_string(R.Stats.Salvaged) +
         ", \"implied\": " + std::to_string(R.Stats.Implied) +
         ", \"salvage_queries\": " + std::to_string(R.Stats.SalvageQueries) +
         "}";
}

std::string renderSuite(const SuiteResult &S) {
  std::string Out = "    {\"name\": \"" + jsonEscape(S.Name) + "\"";
  Out += ", \"obligations\": " + std::to_string(S.Obligations);
  Out += ", \"ok\": " + std::string(S.ok() ? "true" : "false");
  Out += ", \"warm_speedup\": " + fmt(S.warmSpeedup(), "%.3f");
  if (S.HasEdit)
    Out += ", \"edit_vs_blanket_speedup\": " +
           fmt(S.editVsBlanketSpeedup(), "%.3f");
  Out += ",\n     \"cold\": " + renderRun(S.Cold);
  Out += ",\n     \"warm\": " + renderRun(S.Warm);
  if (S.HasEdit) {
    Out += ",\n     \"edit\": " + renderRun(S.Edit);
    Out += ",\n     \"edit_blanket\": " + renderRun(S.BlanketEdit);
  }
  Out += ",\n     \"store_bytes\": " + std::to_string(S.StoreBytes);
  Out += ", \"store_load_seconds\": " + fmt(S.StoreLoadSeconds);
  Out += ", \"store_flush_seconds\": " + fmt(S.StoreFlushSeconds);
  return Out + "}";
}

void printSuite(const SuiteResult &S) {
  std::printf("%-28s %zu obligations  %s\n", S.Name.c_str(), S.Obligations,
              S.ok() ? "ok" : "FAIL");
  std::printf("  cold  %8.3fs  (%llu proved)\n", S.Cold.Seconds,
              static_cast<unsigned long long>(S.Cold.Stats.verified()));
  std::printf("  warm  %8.3fs  speedup %6.2fx  (%llu cached, %llu re-proved)\n",
              S.Warm.Seconds, S.warmSpeedup(),
              static_cast<unsigned long long>(S.Warm.Stats.cached()),
              static_cast<unsigned long long>(S.Warm.Stats.verified()));
  if (S.HasEdit) {
    std::printf("  edit  %8.3fs  (%llu salvaged via %llu queries, "
                "%llu re-proved)\n",
                S.Edit.Seconds,
                static_cast<unsigned long long>(S.Edit.Stats.salvaged()),
                static_cast<unsigned long long>(S.Edit.Stats.SalvageQueries),
                static_cast<unsigned long long>(S.Edit.Stats.verified()));
    std::printf("  blnkt %8.3fs  (%llu re-proved)  edit speedup %6.2fx\n",
                S.BlanketEdit.Seconds,
                static_cast<unsigned long long>(
                    S.BlanketEdit.Stats.verified()),
                S.editVsBlanketSpeedup());
  }
  std::printf("  store %zu bytes, load %.1fms, flush %.1fms\n", S.StoreBytes,
              1e3 * S.StoreLoadSeconds, 1e3 * S.StoreFlushSeconds);
}

std::string storePath(const std::string &Suite) {
  return "bench_incr_" + Suite + ".prf";
}

/// Replaces the store directory \p Dir by a copy of \p From.
void restoreStore(const std::string &From, const std::string &Dir) {
  fs::remove_all(Dir);
  fs::copy(From, Dir, fs::copy_options::recursive);
}

/// The generated multi-module program of the edit-to-verdict benchmark: one
/// shared `core::step` with a multi-conjunct pure spec, plus N caller
/// modules each proved against that spec. Editing one conjunct of the
/// shared spec touches every module's recorded deps; semantic salvage keeps
/// all N+1 verdicts through a handful of implication queries, while blanket
/// invalidation re-proves the whole program.
struct GenModules {
  rmir::Program Prog;
  gilsonite::PredTable Preds;
  gilsonite::SpecTable Specs;
  std::unique_ptr<gilsonite::OwnableRegistry> Ownables;
  engine::LemmaTable Lemmas;
  Solver Solv;
  engine::Automation Auto;
  std::vector<std::string> Funcs;

  explicit GenModules(int Modules) {
    using namespace gilr::rmir;
    using namespace gilr::gilsonite;
    Ownables = std::make_unique<OwnableRegistry>(Prog.Types, Preds);
    TypeRef U32 = Prog.Types.intTy(IntKind::U32);
    Expr XV = mkVar("x", Sort::Int);
    Expr Ret = mkVar(retVarName(), Sort::Int);

    {
      FunctionBuilder B("core::step", Prog.Types);
      LocalId X = B.addParam("x", U32);
      B.setReturnType(U32);
      BlockId E = B.newBlock();
      B.atBlock(E);
      B.assign(Place(0),
               Rvalue::binary(BinOp::Add, Operand::copy(Place(X)),
                              Operand::constant(mkInt(1), U32)));
      B.ret();
      addFn(B.finish());
      Spec S;
      S.Func = "core::step";
      S.Pre = star({pure(mkLe(mkInt(0), XV)), pure(mkLt(XV, mkInt(1000))),
                    pure(mkLe(XV, mkInt(100000)))});
      S.Post = star({pure(mkEq(Ret, mkAdd(XV, mkInt(1)))),
                     pure(mkLe(Ret, mkInt(1000)))});
      Specs.add(std::move(S));
      Funcs.push_back("core::step");
    }

    // Each module chains Steps calls through core::step's spec, so its
    // re-proof is an order of magnitude more work than the one implication
    // query that salvages it.
    constexpr int Steps = 10;
    for (int I = 0; I != Modules; ++I) {
      std::string Name = "mod" + std::to_string(I) + "::call_step";
      FunctionBuilder B(Name, Prog.Types);
      LocalId X = B.addParam("x", U32);
      B.setReturnType(U32);
      std::vector<LocalId> T;
      for (int K = 0; K != Steps; ++K)
        T.push_back(B.addLocal("t" + std::to_string(K), U32));
      BlockId E = B.newBlock();
      B.atBlock(E);
      LocalId Prev = X;
      for (int K = 0; K != Steps; ++K) {
        BlockId Cont = B.newBlock();
        B.call("core::step", {Operand::copy(Place(Prev))}, Place(T[K]),
               Cont);
        B.atBlock(Cont);
        Prev = T[K];
      }
      B.assign(Place(0), Rvalue::use(Operand::copy(Place(Prev))));
      B.ret();
      addFn(B.finish());
      Spec S;
      S.Func = Name;
      // Per-module bound so the specs are not all identical.
      S.Pre = star({pure(mkLe(mkInt(0), XV)),
                    pure(mkLt(XV, mkInt(10 + I % 7)))});
      S.Post = star({pure(mkEq(Ret, mkAdd(XV, mkInt(Steps))))});
      Specs.add(std::move(S));
      Funcs.push_back(std::move(Name));
    }
  }

  void addFn(rmir::Function F) {
    std::string N = F.Name;
    Prog.Funcs.emplace(std::move(N), std::move(F));
  }

  engine::VerifEnv env() {
    engine::VerifEnv E{Prog,   Preds, Specs, *Ownables,
                       Lemmas, Solv,  Auto,  analysis::AnalysisConfig{}};
    // Lints never salvage (they quote spec text); keep the edit-to-verdict
    // measurement a pure proof-obligation workload.
    E.Lint.Enabled = false;
    return E;
  }
};

} // namespace

int main(int argc, char **argv) {
  trace::configureFromEnv();
  std::string OutFile = argc > 1 ? argv[1] : "BENCH_incr.json";
  std::vector<SuiteResult> Suites;

  {
    // LinkedList functional hybrid: the full two-sided workload, including
    // front_mut (the lemma-applying proof) so the edit lever has a
    // dependent.
    auto Lib =
        frontend::loadModule(GILR_CORPUS_DIR "/linkedlist_functional.gilr");
    std::vector<std::string> Funcs = Lib->verifyFuncs();
    Funcs.push_back("LinkedList::front_mut");
    std::vector<creusot::SafeFn> Clients = Lib->verifyClients();

    SuiteResult Suite;
    Suite.Name = "linkedlist-functional-hybrid";
    Suite.Obligations = Funcs.size() + Clients.size();
    std::string Path = storePath("linkedlist");
    incr::IncrConfig Inc;
    Inc.Enabled = true;
    Inc.StorePath = Path;

    auto RunOnce = [&](incr::IncrRunStats &Stats) {
      engine::VerifEnv Env = Lib->env();
      hybrid::HybridDriver D(Env, Lib->Contracts);
      sched::SchedulerConfig C;
      return D.run(Funcs, Clients, C, Inc, &Stats).ok();
    };

    Suite.Cold = best([&] { fs::remove_all(Path); }, RunOnce);
    // The cold best-of loop leaves a fully populated store behind.
    Suite.Warm = best([] {}, RunOnce);
    measureStoreOverhead(Suite, Inc, [&] { return Lib->env(); },
                         &Lib->Contracts);

    // Single-lemma edit: conjoin a LinArith-true but syntactically
    // irreducible fact onto the extraction lemma's requirement. Meaning is
    // unchanged; the fingerprint is not. With semantic salvage the lemma's
    // dependent (front_mut) is rescued by one implication query; under
    // blanket invalidation it re-proves — and only it.
    auto *LV = Lib->Lemmas.lookupMutable("ll_extract_head");
    if (LV) {
      auto &Ex = std::get<engine::ExtractLemma>(*LV);
      Expr Old = Ex.Requires;
      Expr Z = mkVar("incr$edit", Sort::Int);
      Ex.Requires = mkAnd(Old, mkLe(Z, mkAdd(Z, mkInt(1))));
      Suite.HasEdit = true;
      std::string WarmStore = Path + ".warm";
      restoreStore(Path, WarmStore);
      auto ResetStore = [&] { restoreStore(WarmStore, Path); };
      Suite.Edit = best(ResetStore, RunOnce);
      Suite.Edit.Ok = Suite.Edit.Ok && Suite.Edit.Stats.verified() == 0 &&
                      Suite.Edit.Stats.salvaged() >= 1;
      incr::IncrConfig Blanket = Inc;
      Blanket.SemanticSalvage = false;
      auto RunBlanket = [&](incr::IncrRunStats &Stats) {
        engine::VerifEnv Env = Lib->env();
        hybrid::HybridDriver D(Env, Lib->Contracts);
        sched::SchedulerConfig C;
        return D.run(Funcs, Clients, C, Blanket, &Stats).ok();
      };
      Suite.BlanketEdit = best(ResetStore, RunBlanket);
      // A blanket edit run re-proves exactly the dependents, not everything.
      Suite.BlanketEdit.Ok = Suite.BlanketEdit.Ok &&
                             Suite.BlanketEdit.Stats.verified() > 0 &&
                             Suite.BlanketEdit.Stats.verified() <
                                 Suite.Obligations;
      Ex.Requires = Old;
    }

    printSuite(Suite);
    Suites.push_back(std::move(Suite));
    fs::remove_all(Path);
    fs::remove_all(Path + ".warm");
  }

  {
    // Vec raw-buffer: the unsafe-only suite through the Verifier's
    // incremental entry point.
    auto Lib = frontend::loadModule(GILR_CORPUS_DIR "/vec.gilr");
    std::vector<std::string> Funcs = Lib->verifyFuncs();

    SuiteResult Suite;
    Suite.Name = "vec-raw-buffer";
    Suite.Obligations = Funcs.size();
    std::string Path = storePath("vec");
    incr::IncrConfig Inc;
    Inc.Enabled = true;
    Inc.StorePath = Path;

    auto RunOnce = [&](incr::IncrRunStats &Stats) {
      engine::VerifEnv Env = Lib->env();
      engine::Verifier V(Env);
      sched::SchedulerConfig C;
      for (const engine::VerifyReport &R :
           V.verifyAll(Funcs, C, Inc, &Stats))
        if (!R.Ok)
          return false;
      return true;
    };

    Suite.Cold = best([&] { fs::remove_all(Path); }, RunOnce);
    Suite.Warm = best([] {}, RunOnce);
    measureStoreOverhead(Suite, Inc, [&] { return Lib->env(); }, nullptr);

    printSuite(Suite);
    Suites.push_back(std::move(Suite));
    fs::remove_all(Path);
  }

  {
    // Generated multi-module program: the ISSUE's edit-to-verdict headline.
    // Editing one conjunct of the shared core::step spec — `x < 1000`
    // becomes the equivalent `x <= 999` — touches every module's recorded
    // deps. Semantic salvage keeps all verdicts through implication
    // queries; blanket invalidation re-proves the whole program.
    GenModules Gen(32);

    SuiteResult Suite;
    Suite.Name = "gen-modules-shared-spec";
    Suite.Obligations = Gen.Funcs.size();
    Suite.EditSpeedupFloor = MinEditSpeedup;
    std::string Path = storePath("gen_modules");
    incr::IncrConfig Inc;
    Inc.Enabled = true;
    Inc.StorePath = Path;

    auto RunWith = [&](const incr::IncrConfig &Cfg,
                       incr::IncrRunStats &Stats) {
      engine::VerifEnv Env = Gen.env();
      engine::Verifier V(Env);
      sched::SchedulerConfig C;
      for (const engine::VerifyReport &R :
           V.verifyAll(Gen.Funcs, C, Cfg, &Stats))
        if (!R.Ok)
          return false;
      return true;
    };
    auto RunOnce = [&](incr::IncrRunStats &Stats) {
      return RunWith(Inc, Stats);
    };

    Suite.Cold = best([&] { fs::remove_all(Path); }, RunOnce);
    Suite.Warm = best([] {}, RunOnce);
    measureStoreOverhead(Suite, Inc, [&] { return Gen.env(); }, nullptr);

    // The conjunct edit, applied once; both edit runs restart from the
    // pristine warm store (a salvage run refreshes the records on disk).
    gilsonite::Spec *Sp = Gen.Specs.lookupMutable("core::step");
    if (Sp) {
      Expr XV = mkVar("x", Sort::Int);
      std::vector<gilsonite::AssertionP> Parts = Sp->Pre->Parts;
      Parts[1] = gilsonite::pure(mkLe(XV, mkInt(999)));
      Sp->Pre = gilsonite::star(std::move(Parts));
      Suite.HasEdit = true;
      std::string WarmStore = Path + ".warm";
      restoreStore(Path, WarmStore);
      auto ResetStore = [&] { restoreStore(WarmStore, Path); };
      Suite.Edit = best(ResetStore, RunOnce);
      // Every obligation must be salvaged, none re-proved.
      Suite.Edit.Ok = Suite.Edit.Ok && Suite.Edit.Stats.verified() == 0 &&
                      Suite.Edit.Stats.salvaged() == Suite.Obligations;
      incr::IncrConfig Blanket = Inc;
      Blanket.SemanticSalvage = false;
      auto RunBlanket = [&](incr::IncrRunStats &Stats) {
        return RunWith(Blanket, Stats);
      };
      Suite.BlanketEdit = best(ResetStore, RunBlanket);
      // Blanket invalidation re-proves the whole program.
      Suite.BlanketEdit.Ok = Suite.BlanketEdit.Ok &&
                             Suite.BlanketEdit.Stats.verified() ==
                                 Suite.Obligations;
    }

    printSuite(Suite);
    Suites.push_back(std::move(Suite));
    fs::remove_all(Path);
    fs::remove_all(Path + ".warm");
  }

  bool AllOk = true;
  double MinSpeedup = 0.0;
  double EditSpeedup = 0.0;
  std::string Json = "{\n  \"bench\": \"incremental-verification\"";
  Json += ",\n  \"suites\": [\n";
  for (std::size_t I = 0; I != Suites.size(); ++I) {
    AllOk = AllOk && Suites[I].ok();
    double S = Suites[I].warmSpeedup();
    if (I == 0 || S < MinSpeedup)
      MinSpeedup = S;
    if (Suites[I].EditSpeedupFloor > 0.0)
      EditSpeedup = Suites[I].editVsBlanketSpeedup();
    Json += renderSuite(Suites[I]);
    Json += I + 1 != Suites.size() ? ",\n" : "\n";
  }
  Json += "  ],\n  \"min_warm_speedup\": " + fmt(MinSpeedup, "%.3f");
  Json +=
      ",\n  \"edit_vs_blanket_speedup\": " + fmt(EditSpeedup, "%.3f") + "\n}\n";

  std::FILE *F = std::fopen(OutFile.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", OutFile.c_str());
    return 1;
  }
  std::fwrite(Json.data(), 1, Json.size(), F);
  std::fclose(F);
  std::printf("wrote %s (min warm speedup %.2fx, edit vs blanket %.2fx)\n",
              OutFile.c_str(), MinSpeedup, EditSpeedup);
  return AllOk ? 0 : 1;
}

//===- bench/bench_analysis.cpp - Pre-verification analysis overhead --------===//
//
// Measures the static pre-pass (src/analysis/, docs/ANALYSIS.md) on the
// case-study suites:
//
//   * pre-pass wall time vs. total cold verification wall time — the
//     headline number is the ratio, budgeted at <= 5%;
//   * the diagnostic counts over the case studies. The suites are expected
//     to be clean: any error-severity diagnostic fails the run (exit 1), so
//     CI can gate on it (the lint analogue of bench_incr's warm-replay gate).
//
// Usage: bench_analysis [out-file]
//   default: BENCH_analysis.json
//
//===----------------------------------------------------------------------===//

#include "engine/Verifier.h"
#include "frontend/Corpus.h"
#include "sched/Scheduler.h"
#include "support/StringUtils.h"
#include "support/Trace.h"

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

using namespace gilr;

namespace {

constexpr int Repetitions = 3;
constexpr double RatioBudget = 0.05; // Pre-pass <= 5% of cold verification.

struct SuiteResult {
  std::string Name;
  std::size_t Entities = 0;
  bool VerifyOk = true;
  double TotalSeconds = 0.0;    ///< Whole cold verifyAll wall (best of N).
  double AnalysisSeconds = 0.0; ///< Pre-pass share of that run.
  uint64_t Errors = 0;
  uint64_t Warnings = 0;
  uint64_t Suppressed = 0;
  uint64_t Blocked = 0;

  double ratio() const {
    return TotalSeconds > 0.0 ? AnalysisSeconds / TotalSeconds : 0.0;
  }
  /// The per-suite gate: everything verified, zero error diagnostics, zero
  /// rejected entities. The wall-time budget is checked on the aggregate
  /// across suites (a per-suite ratio is noise on millisecond suites).
  bool ok() const { return VerifyOk && Errors == 0 && Blocked == 0; }
};

double now() {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs \p RunOnce (a full cold scheduled verifyAll returning the analysis
/// result) \c Repetitions times; keeps the fastest total.
SuiteResult
measure(const std::string &Name, std::size_t Entities,
        const std::function<bool(analysis::AnalysisResult &)> &RunOnce) {
  SuiteResult S;
  S.Name = Name;
  S.Entities = Entities;
  for (int Rep = 0; Rep != Repetitions; ++Rep) {
    analysis::AnalysisResult AR;
    double Start = now();
    bool Ok = RunOnce(AR);
    double Total = now() - Start;
    S.VerifyOk = S.VerifyOk && Ok;
    if (Rep == 0 || Total < S.TotalSeconds) {
      S.TotalSeconds = Total;
      S.AnalysisSeconds = AR.Seconds;
    }
    // Diagnostics are run-independent (the determinism contract); counts
    // come from the last repetition unconditionally.
    S.Errors = AR.Errors;
    S.Warnings = AR.Warnings;
    S.Suppressed = AR.Suppressed;
    S.Blocked = AR.EntitiesBlocked;
  }
  return S;
}

std::string fmt(double V, const char *Spec = "%.6f") {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), Spec, V);
  return Buf;
}

std::string renderSuite(const SuiteResult &S) {
  std::string Out = "    {\"name\": \"" + jsonEscape(S.Name) + "\"";
  Out += ", \"entities\": " + std::to_string(S.Entities);
  Out += ", \"ok\": " + std::string(S.ok() ? "true" : "false");
  Out += ",\n     \"total_seconds\": " + fmt(S.TotalSeconds);
  Out += ", \"analysis_seconds\": " + fmt(S.AnalysisSeconds);
  Out += ", \"analysis_ratio\": " + fmt(S.ratio(), "%.4f");
  Out += ",\n     \"errors\": " + std::to_string(S.Errors);
  Out += ", \"warnings\": " + std::to_string(S.Warnings);
  Out += ", \"suppressed\": " + std::to_string(S.Suppressed);
  Out += ", \"blocked\": " + std::to_string(S.Blocked);
  return Out + "}";
}

void printSuite(const SuiteResult &S) {
  std::printf("%-28s %zu entities  %s\n", S.Name.c_str(), S.Entities,
              S.ok() ? "ok" : "FAIL");
  std::printf("  cold verify %8.3fs, pre-pass %6.4fs (%.2f%%, budget %.0f%%)\n",
              S.TotalSeconds, S.AnalysisSeconds, 1e2 * S.ratio(),
              1e2 * RatioBudget);
  std::printf("  diagnostics: %llu error(s), %llu warning(s), %llu "
              "suppressed, %llu blocked\n",
              static_cast<unsigned long long>(S.Errors),
              static_cast<unsigned long long>(S.Warnings),
              static_cast<unsigned long long>(S.Suppressed),
              static_cast<unsigned long long>(S.Blocked));
}

} // namespace

int main(int argc, char **argv) {
  trace::configureFromEnv();
  std::string OutFile = argc > 1 ? argv[1] : "BENCH_analysis.json";
  std::vector<SuiteResult> Suites;

  {
    auto Lib =
        frontend::loadModule(GILR_CORPUS_DIR "/linkedlist_functional.gilr");
    std::vector<std::string> Funcs = Lib->verifyFuncs();
    Funcs.push_back("LinkedList::front_mut");
    Suites.push_back(measure(
        "linkedlist-functional", Funcs.size(),
        [&](analysis::AnalysisResult &AR) {
          engine::VerifEnv Env = Lib->env();
          engine::Verifier V(Env);
          sched::SchedulerConfig C;
          bool Ok = true;
          for (const engine::VerifyReport &R : V.verifyAll(Funcs, C))
            Ok = Ok && R.Ok;
          AR = V.lastAnalysis();
          return Ok;
        }));
    printSuite(Suites.back());
  }

  {
    auto Lib = frontend::loadModule(GILR_CORPUS_DIR "/vec.gilr");
    std::vector<std::string> Funcs = Lib->verifyFuncs();
    Suites.push_back(measure(
        "vec-raw-buffer", Funcs.size(), [&](analysis::AnalysisResult &AR) {
          engine::VerifEnv Env = Lib->env();
          engine::Verifier V(Env);
          sched::SchedulerConfig C;
          bool Ok = true;
          for (const engine::VerifyReport &R : V.verifyAll(Funcs, C))
            Ok = Ok && R.Ok;
          AR = V.lastAnalysis();
          return Ok;
        }));
    printSuite(Suites.back());
  }

  bool AllOk = true;
  double SumTotal = 0.0, SumAnalysis = 0.0;
  std::string Json = "{\n  \"bench\": \"pre-verification-analysis\"";
  Json += ",\n  \"ratio_budget\": " + fmt(RatioBudget, "%.2f");
  Json += ",\n  \"suites\": [\n";
  for (std::size_t I = 0; I != Suites.size(); ++I) {
    AllOk = AllOk && Suites[I].ok();
    SumTotal += Suites[I].TotalSeconds;
    SumAnalysis += Suites[I].AnalysisSeconds;
    Json += renderSuite(Suites[I]);
    Json += I + 1 != Suites.size() ? ",\n" : "\n";
  }
  const double AggRatio = SumTotal > 0.0 ? SumAnalysis / SumTotal : 0.0;
  const bool WithinBudget = AggRatio <= RatioBudget;
  AllOk = AllOk && WithinBudget;
  Json += "  ],\n  \"analysis_ratio\": " + fmt(AggRatio, "%.4f") +
          ",\n  \"within_budget\": " +
          (WithinBudget ? "true" : "false") +
          ",\n  \"ok\": " + (AllOk ? "true" : "false") + "\n}\n";

  std::FILE *F = std::fopen(OutFile.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", OutFile.c_str());
    return 1;
  }
  std::fwrite(Json.data(), 1, Json.size(), F);
  std::fclose(F);
  std::printf("wrote %s (aggregate pre-pass ratio %.2f%%, budget %.0f%%)\n",
              OutFile.c_str(), 1e2 * AggRatio, 1e2 * RatioBudget);
  return AllOk ? 0 : 1;
}

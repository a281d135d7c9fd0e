//===- tests/frontend_test.cpp - Textual RMIR frontend tests ----------------===//
//
// The acceptance tests of the .gilr frontend:
//  * every corpus module parses cleanly;
//  * the round trip print -> parse -> print is a fixpoint and preserves
//    every structural fingerprint (incr/Fingerprint.h);
//  * predicates are mode-checked (§7.2) at parse time;
//  * the gilr CLI honours the exit-code contract (0 verified, 1 proof
//    failures, 2 lint errors, 3 parse/type errors);
//  * diagnostics carry real source locations (file:line:col + caret), both
//    for .gilr syntax errors and for position-tracked Gilsonite spec errors.
//
//===----------------------------------------------------------------------===//

#include "frontend/Cli.h"
#include "frontend/Frontend.h"
#include "frontend/Printer.h"
#include "incr/Fingerprint.h"
#include "support/Files.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

using namespace gilr;

namespace {

const char *CorpusFiles[] = {
    "linkedlist_safety", "linkedlist_functional", "linkedlist_buggy",
    "clients_bad",       "stack_safety",          "stack_functional",
    "vec",
};

std::string corpusPath(const std::string &Name) {
  return std::string(GILR_CORPUS_DIR) + "/" + Name + ".gilr";
}

/// Writes \p Text to a unique temp .gilr file and returns the path.
std::string tempModule(const std::string &Tag, const std::string &Text) {
  std::string Path = ::testing::TempDir() + "frontend_test_" + Tag + ".gilr";
  EXPECT_TRUE(files::writeFile(Path, Text, "test module"));
  return Path;
}

int cli(std::initializer_list<std::string> Args, std::string *OutText = nullptr,
        std::string *ErrText = nullptr) {
  std::ostringstream Out, Err;
  int Code = frontend::runCli(std::vector<std::string>(Args), Out, Err);
  if (OutText)
    *OutText = Out.str();
  if (ErrText)
    *ErrText = Err.str();
  return Code;
}

// --- Corpus: parse + round trip -----------------------------------------

TEST(Frontend, CorpusParsesClean) {
  for (const char *Name : CorpusFiles) {
    frontend::ParseResult R = frontend::parseFile(corpusPath(Name));
    std::string Msgs;
    for (const analysis::Diagnostic &D : R.Diags)
      Msgs += D.str() + "\n";
    ASSERT_TRUE(R.ok()) << Name << ":\n" << Msgs;
    EXPECT_EQ(R.Mod->Name, Name);
  }
}

TEST(Frontend, RoundTripIsAFixpoint) {
  for (const char *Name : CorpusFiles) {
    frontend::ParseResult R1 = frontend::parseFile(corpusPath(Name));
    ASSERT_TRUE(R1.ok()) << Name;
    std::string P1 = frontend::printModule(*R1.Mod);
    frontend::ParseResult R2 = frontend::parseString(Name, P1);
    std::string Msgs;
    for (const analysis::Diagnostic &D : R2.Diags)
      Msgs += D.str() + "\n";
    ASSERT_TRUE(R2.ok()) << Name << ":\n" << Msgs;
    EXPECT_EQ(P1, frontend::printModule(*R2.Mod)) << Name;
  }
}

TEST(Frontend, RoundTripPreservesFingerprints) {
  for (const char *Name : CorpusFiles) {
    frontend::ParseResult R1 = frontend::parseFile(corpusPath(Name));
    ASSERT_TRUE(R1.ok()) << Name;
    frontend::Module &A = *R1.Mod;
    frontend::ParseResult R2 =
        frontend::parseString(Name, frontend::printModule(A));
    ASSERT_TRUE(R2.ok()) << Name;
    frontend::Module &B = *R2.Mod;

    ASSERT_EQ(A.Prog.Funcs.size(), B.Prog.Funcs.size()) << Name;
    for (const auto &[FN, F] : A.Prog.Funcs) {
      const rmir::Function *G = B.Prog.lookup(FN);
      ASSERT_NE(G, nullptr) << Name << "/" << FN;
      EXPECT_EQ(incr::fpFunction(F), incr::fpFunction(*G))
          << Name << "/" << FN;
    }
    ASSERT_EQ(A.Preds.all().size(), B.Preds.all().size()) << Name;
    for (const auto &[PN, P] : A.Preds.all())
      EXPECT_EQ(incr::fpPred(P), incr::fpPred(B.Preds.all().at(PN)))
          << Name << "/" << PN;
    ASSERT_EQ(A.Specs.all().size(), B.Specs.all().size()) << Name;
    for (const auto &[SN, S] : A.Specs.all())
      EXPECT_EQ(incr::fpSpec(S), incr::fpSpec(B.Specs.all().at(SN)))
          << Name << "/" << SN;
    ASSERT_EQ(A.Contracts.all().size(), B.Contracts.all().size()) << Name;
    for (const auto &[CN, C] : A.Contracts.all())
      EXPECT_EQ(incr::fpContract(C), incr::fpContract(B.Contracts.all().at(CN)))
          << Name << "/" << CN;
    ASSERT_EQ(A.Clients.size(), B.Clients.size()) << Name;
    for (std::size_t I = 0; I < A.Clients.size(); ++I)
      EXPECT_EQ(incr::fpSafeFn(A.Clients[I]), incr::fpSafeFn(B.Clients[I]))
          << Name << "/" << A.Clients[I].Name;
    ASSERT_EQ(A.FreezeDecls.size(), B.FreezeDecls.size()) << Name;
    for (std::size_t I = 0; I < A.FreezeDecls.size(); ++I)
      EXPECT_EQ(incr::fpLemma(A.FreezeDecls[I]),
                incr::fpLemma(B.FreezeDecls[I]))
          << Name << "/" << A.FreezeDecls[I].Name;
    ASSERT_EQ(A.ExtractDecls.size(), B.ExtractDecls.size()) << Name;
    for (std::size_t I = 0; I < A.ExtractDecls.size(); ++I)
      EXPECT_EQ(incr::fpLemma(A.ExtractDecls[I]),
                incr::fpLemma(B.ExtractDecls[I]))
          << Name << "/" << A.ExtractDecls[I].Name;
    EXPECT_EQ(incr::fpAutomation(A.Auto, 64), incr::fpAutomation(B.Auto, 64))
        << Name;
    EXPECT_EQ(A.VerifyList, B.VerifyList) << Name;
  }
}

// --- The CLI exit-code contract -----------------------------------------

TEST(FrontendCli, ExitVerifiedIsZero) {
  EXPECT_EQ(0, cli({"verify", corpusPath("vec")}));
}

TEST(FrontendCli, ExitProofFailureIsOne) {
  EXPECT_EQ(1, cli({"verify", corpusPath("linkedlist_buggy")}));
  EXPECT_EQ(1, cli({"verify", corpusPath("clients_bad")}));
}

TEST(FrontendCli, ExitLintErrorIsTwo) {
  // y = copy x with x never initialized: GILR-E004, error severity, blocks
  // verification -> exit 2 from both lint and verify.
  std::string Path = tempModule("lint",
                                "fn f {\n"
                                "  params 0;\n"
                                "  let x: usize;\n"
                                "  let y: usize;\n"
                                "  bb0: {\n"
                                "    y = copy x;\n"
                                "    return;\n"
                                "  }\n"
                                "}\n");
  EXPECT_EQ(0, cli({"check", Path}));
  EXPECT_EQ(2, cli({"lint", Path}));
  EXPECT_EQ(2, cli({"verify", Path}));
  std::remove(Path.c_str());
}

TEST(FrontendCli, ExitParseErrorIsThree) {
  std::string Path = tempModule("syn", "fn broken {\n  params oops;\n}\n");
  EXPECT_EQ(3, cli({"check", Path}));
  EXPECT_EQ(3, cli({"lint", Path}));
  EXPECT_EQ(3, cli({"verify", Path}));
  std::remove(Path.c_str());
}

TEST(FrontendCli, WorstExitWinsAcrossFiles) {
  std::string Bad = tempModule("multi", "verify nosuch;\n");
  EXPECT_EQ(3, cli({"verify", corpusPath("vec"), Bad}));
  std::remove(Bad.c_str());
}

TEST(FrontendCli, UsageErrorsAreThree) {
  EXPECT_EQ(3, cli({}));
  EXPECT_EQ(3, cli({"frobnicate", corpusPath("vec")}));
  EXPECT_EQ(3, cli({"check"}));
  EXPECT_EQ(3, cli({"check", "--jobs"}));
  EXPECT_EQ(3, cli({"check", "--no-such-flag", corpusPath("vec")}));
}

TEST(FrontendCli, MissingFileIsThree) {
  std::string ErrText;
  EXPECT_EQ(3, cli({"check", "/nonexistent/nope.gilr"}, nullptr, &ErrText));
  EXPECT_NE(ErrText.find("GILR-E010"), std::string::npos);
}

TEST(FrontendCli, StoreThatIsARegularFileRunsColdAndIsKept) {
  // An old single-file store where the record directory should be: the run
  // verifies cold with one warning, keeps its exit code and never touches
  // the file.
  const std::string Old = "GILRPRF1 an old append-log store";
  std::string Path = ::testing::TempDir() + "frontend_test_old_store.prf";
  ASSERT_TRUE(files::writeFile(Path, Old, "old store"));
  for (int Run = 0; Run != 2; ++Run) {
    std::string OutText, ErrText;
    EXPECT_EQ(0, cli({"verify", "--incr-store", Path, corpusPath("vec")},
                     &OutText, &ErrText));
    EXPECT_NE(OutText.find("0 cached, 4 verified"), std::string::npos)
        << OutText;
    std::size_t At = ErrText.find("warning: cannot use proof store " + Path);
    ASSERT_NE(At, std::string::npos) << ErrText;
    EXPECT_EQ(ErrText.find("warning:", At + 1), std::string::npos)
        << "one warning per store: " << ErrText;
  }
  std::string Now;
  ASSERT_TRUE(files::readFile(Path, Now, "old store"));
  EXPECT_EQ(Now, Old);
  std::remove(Path.c_str());
}

// --- Diagnostics: source locations and carets ---------------------------

TEST(FrontendCli, SyntaxErrorHasCaret) {
  std::string Path = tempModule("caret", "fn broken {\n  params oops;\n}\n");
  std::string ErrText;
  EXPECT_EQ(3, cli({"check", Path}, nullptr, &ErrText));
  // file:line:col prefix and the underline line.
  EXPECT_NE(ErrText.find(Path + ":2:10"), std::string::npos) << ErrText;
  EXPECT_NE(ErrText.find("GILR-E008"), std::string::npos) << ErrText;
  EXPECT_NE(ErrText.find("^"), std::string::npos) << ErrText;
  std::remove(Path.c_str());
}

TEST(Frontend, GilsoniteErrorsCarryPositions) {
  // The spec's pre is malformed ('(pure' never closed): the position-tracked
  // Gilsonite bridge must point INTO the S-expression, not at the item.
  std::string Text = "spec s {\n"
                     "  pre (pure (= 1 1);\n"
                     "}\n";
  frontend::ParseResult R = frontend::parseString("pos.gilr", Text);
  ASSERT_FALSE(R.ok());
  ASSERT_FALSE(R.Diags.empty());
  const analysis::Diagnostic &D = R.Diags.front();
  EXPECT_EQ(D.Code, analysis::code::SyntaxError);
  EXPECT_EQ(D.File, "pos.gilr");
  EXPECT_EQ(D.Line, 2u) << D.str();
  EXPECT_GE(D.Col, 7u) << D.str();
}

TEST(Frontend, NameErrorsCarryPositions) {
  std::string Text = "fn f {\n"
                     "  params 0;\n"
                     "  let x: NoSuchType;\n"
                     "  bb0: {\n"
                     "    return;\n"
                     "  }\n"
                     "}\n";
  frontend::ParseResult R = frontend::parseString("names.gilr", Text);
  ASSERT_FALSE(R.ok());
  ASSERT_FALSE(R.Diags.empty());
  const analysis::Diagnostic &D = R.Diags.front();
  EXPECT_EQ(D.Code, analysis::code::NameError);
  EXPECT_EQ(D.Line, 3u) << D.str();
}

TEST(Frontend, IllModedPredicatesAreRejected) {
  // §7.2: an existential that no atom can learn, and an out-parameter that
  // is only compared, never bound. Each is one GILR-E010 at its
  // predicate's line; the well-moded predicate between them is clean.
  std::string Text =
      "pred bad {\n"
      "  param a Int in;\n"
      "  clause (exists ((ghost? Int)) (pure (< ghost? (var a Int))));\n"
      "}\n"
      "pred good {\n"
      "  param a Int in;\n"
      "  param b Int out;\n"
      "  clause (pure (= (var b Int) (var a Int)));\n"
      "}\n"
      "pred bad_out {\n"
      "  param a Int in;\n"
      "  param b Int out;\n"
      "  clause (pure (< (var b Int) (var a Int)));\n"
      "}\n";
  frontend::ParseResult R = frontend::parseString("modes.gilr", Text);
  ASSERT_FALSE(R.ok());
  ASSERT_EQ(R.Diags.size(), 2u);
  EXPECT_EQ(R.Diags[0].Code, analysis::code::FrontendError);
  EXPECT_EQ(R.Diags[0].Line, 1u) << R.Diags[0].str();
  EXPECT_NE(R.Diags[0].Message.find("existential 'ghost?'"),
            std::string::npos)
      << R.Diags[0].str();
  EXPECT_EQ(R.Diags[1].Code, analysis::code::FrontendError);
  EXPECT_EQ(R.Diags[1].Line, 10u) << R.Diags[1].str();
  EXPECT_NE(R.Diags[1].Message.find("out-parameter 'b'"), std::string::npos)
      << R.Diags[1].str();

  std::string Path = tempModule("modes", Text);
  std::string ErrText;
  EXPECT_EQ(3, cli({"check", Path}, nullptr, &ErrText));
  EXPECT_NE(ErrText.find("GILR-E010"), std::string::npos) << ErrText;
  EXPECT_EQ(3, cli({"lint", Path}));
  EXPECT_EQ(3, cli({"verify", Path}));
  std::remove(Path.c_str());
}

TEST(Frontend, MultipleErrorsSurfaceInOneRun) {
  // Two independently broken items: parsing continues across the first.
  std::string Text = "fn f {\n"
                     "  params 0;\n"
                     "  let x: NoSuchType;\n"
                     "  bb0: { return; }\n"
                     "}\n"
                     "fn g {\n"
                     "  params 0;\n"
                     "  let y: AlsoMissing;\n"
                     "  bb0: { return; }\n"
                     "}\n";
  frontend::ParseResult R = frontend::parseString("multi.gilr", Text);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Diags.size(), 2u);
}

// --- JSON output ---------------------------------------------------------

TEST(FrontendCli, JsonSingleFileIsBareObject) {
  std::string OutText;
  EXPECT_EQ(0, cli({"check", "--json", corpusPath("vec")}, &OutText));
  EXPECT_EQ(OutText.front(), '{') << OutText;
  EXPECT_NE(OutText.find("\"command\": \"check\""), std::string::npos);
  EXPECT_NE(OutText.find("\"exit\": 0"), std::string::npos);
}

TEST(FrontendCli, JsonMultiFileIsArray) {
  std::string OutText;
  EXPECT_EQ(0, cli({"check", "--json", corpusPath("vec"),
                    corpusPath("stack_safety")},
                   &OutText));
  EXPECT_EQ(OutText.front(), '[') << OutText;
}

TEST(FrontendCli, JsonVerifyEmbedsReport) {
  std::string OutText;
  EXPECT_EQ(0, cli({"verify", "--json", corpusPath("vec")}, &OutText));
  EXPECT_NE(OutText.find("\"report\": {"), std::string::npos);
  EXPECT_NE(OutText.find("\"ok\": true"), std::string::npos);
}

} // namespace

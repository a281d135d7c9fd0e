//===- examples/bug_hunting.cpp - What verification catches -----------------===//
//
// The negative side of the story: three classic doubly-linked-list bugs
// (including the Fig. 7 cycle the paper uses to motivate type safety) are
// injected into push_front_node; the verifier rejects each one, and the
// diagnostic shows *which* part of the dllSeg invariant broke.
//
//===----------------------------------------------------------------------===//

#include "engine/Verifier.h"
#include "frontend/Corpus.h"

#include <cstdio>
#include "support/Trace.h"

using namespace gilr;

int main() {
  gilr::trace::configureFromEnv();
  // The buggy module is linkedlist_safety plus the three injected variants,
  // which are exactly its verify list.
  auto Lib = frontend::loadModule(GILR_CORPUS_DIR "/linkedlist_buggy.gilr");
  std::vector<std::string> Buggy = Lib->verifyFuncs();

  engine::VerifEnv Env = Lib->env();
  engine::Verifier V(Env);

  std::printf("The correct implementation verifies:\n");
  engine::VerifyReport Good = V.verifyFunction("LinkedList::push_front_node");
  std::printf("  %-38s %s\n\n", "push_front_node",
              Good.Ok ? "VERIFIED" : "rejected?!");

  struct Story {
    const char *Suffix;
    const char *What;
  };
  const Story Stories[] = {
      {"noprev", "forgets (*old).prev = Some(node): the back edge of the "
                 "doubly-linked invariant is stale"},
      {"cycle", "links the new node to itself (Fig. 7): a safe client "
                "could traverse forever or double-free"},
      {"nolen", "forgets len += 1: the len = |repr| part of the Ownable "
                "invariant (Fig. 2) breaks"},
  };

  bool AllRejected = true;
  for (std::size_t I = 0; I != Buggy.size(); ++I) {
    engine::VerifyReport R = V.verifyFunction(Buggy[I]);
    AllRejected &= !R.Ok;
    std::printf("Injected bug: %s\n  %s\n", Stories[I].Suffix,
                Stories[I].What);
    std::printf("  verdict: %s\n", R.Ok ? "VERIFIED (bad!)" : "REJECTED");
    if (!R.Errors.empty()) {
      std::string Msg = R.Errors.front();
      if (Msg.size() > 200)
        Msg = Msg.substr(0, 200) + "...";
      std::printf("  diagnostic: %s\n", Msg.c_str());
    }
    std::printf("\n");
  }

  std::printf("bug hunting: %s\n",
              Good.Ok && AllRejected ? "all bugs caught" : "BROKEN");
  return Good.Ok && AllRejected ? 0 : 1;
}

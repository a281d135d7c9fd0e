//===- incr/Record.h - Proof-store record codec ----------------------------===//
///
/// \file
/// What the incremental proof store persists, and its byte encoding: one
/// record per obligation verdict (the full serialized report, so a cached
/// run reproduces the cold run's report byte-for-byte, plus the
/// dependencies the proof consulted with their fingerprints), and one
/// record of solver QueryCache entries (keyed by the stable query
/// fingerprint) to pre-warm the sched shards. Where records live is
/// incr/RecordStore.h.
///
/// Encodings are little-endian host widths. Every decoder is
/// bounds-checked and returns false on malformed input, which the session
/// treats as a miss.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_INCR_RECORD_H
#define GILR_INCR_RECORD_H

#include "analysis/Analysis.h"
#include "analysis/Summary.h"
#include "creusot/SafeVerifier.h"
#include "engine/Verifier.h"
#include "incr/DepGraph.h"
#include "incr/RecordStore.h"
#include "incr/SpecDiff.h"
#include "solver/Solver.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gilr {
namespace incr {

/// One recorded dependency: the entity and the fingerprint it had when the
/// proof ran, plus its clause-level signature so a later session can diff
/// the edit and attempt salvage (incr/SpecDiff.h).
struct StoredDep {
  deps::Kind K = deps::Kind::Function;
  std::string Name;
  uint64_t Fp = 0;
  /// Whether \c Sig below was recorded. False for entity kinds without
  /// clause structure (RMIR functions), which fall back to plain
  /// fingerprint equality.
  bool HasSig = false;
  EntitySig Sig;
};

/// One cached obligation verdict.
struct StoredObligation {
  Side S = Side::Unsafe;
  std::string Name;
  /// Fingerprint of the obligation's own entity (the RMIR function for the
  /// unsafe side, the SafeFn body for the safe side).
  uint64_t SelfFp = 0;
  /// Fingerprint of the verification configuration (automation knobs +
  /// solver budget) the verdict was produced under.
  uint64_t ConfigFp = 0;
  /// Everything the proof consulted, with its then-current fingerprint.
  std::vector<StoredDep> Deps;
  /// The serialized report (encode/decode helpers below).
  std::string Blob;
};

/// Report serialization. Every field round-trips (timing included, stored
/// as raw IEEE-754 bits), so a warm run's report is byte-identical to the
/// cold run that produced it, modulo the \c Cached marker the session sets
/// on hits. Decoders are bounds-checked and return false on malformed
/// blobs, which the session treats as a miss.
std::string encodeVerifyReport(const engine::VerifyReport &R);
bool decodeVerifyReport(const std::string &Blob, engine::VerifyReport &Out);
std::string encodeSafeReport(const creusot::SafeReport &R);
bool decodeSafeReport(const std::string &Blob, creusot::SafeReport &Out);

/// Lint-verdict blobs (Side::Lint records): the per-entity diagnostics of
/// the pre-verification analysis, cached the way proof verdicts are.
std::string encodeLintVerdict(const analysis::EntityVerdict &V);
bool decodeLintVerdict(const std::string &Blob, analysis::EntityVerdict &Out);

/// Summary blobs (Side::Summary records): one interprocedural
/// function or predicate summary (analysis/Summary.h). Function summaries
/// are keyed by the function name, predicate summaries by "pred:<name>".
std::string encodeFnSummary(const analysis::FnSummary &S);
bool decodeFnSummary(const std::string &Blob, analysis::FnSummary &Out);
std::string encodePredSummary(const analysis::PredSummary &S);
bool decodePredSummary(const std::string &Blob, analysis::PredSummary &Out);

/// Whole-record codec: the payload of one obligation record file
/// (incr/RecordStore.h).
std::string encodeObligationRecord(const StoredObligation &Ob);
bool decodeObligationRecord(const std::string &Payload, StoredObligation &Out);

/// One entry of the local store's index record: the key of an
/// obligation's current record and, after a salvage, the refreshed
/// dependency snapshot that stands in for the record's own. Keeping the
/// refresh here lets a run that salvages many verdicts write one file
/// instead of rewriting one record per verdict.
struct IndexEntry {
  Side S = Side::Unsafe;
  std::string Name;
  CacheKey Key;
  bool Refreshed = false;
  std::vector<StoredDep> Deps;
};

/// The payload of the local store's index record.
std::string encodeStoreIndex(const std::vector<IndexEntry> &Es);
bool decodeStoreIndex(const std::string &Payload,
                      std::vector<IndexEntry> &Out);

/// The payload of the local store's solver-entry record.
std::string encodeSolverEntries(const std::vector<SavedQueryVerdict> &Es);
bool decodeSolverEntries(const std::string &Payload,
                         std::vector<SavedQueryVerdict> &Out);

} // namespace incr
} // namespace gilr

#endif // GILR_INCR_RECORD_H

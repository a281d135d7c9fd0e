//===- incr/RecordStore.h - Content-addressed proof-record directory -------===//
///
/// \file
/// The one on-disk form of the incremental proof store: a directory of
/// content-addressed records, one file per obligation verdict, keyed by
/// the obligation's identity *and* the fingerprints the verdict was
/// produced under — (side, name, self fingerprint, configuration
/// fingerprint) hashed into a 128-bit CacheKey. Because the current
/// fingerprints are part of the key, a get against the current tables can
/// only return a record produced for byte-identical inputs; dependency
/// validation (Session::checkDeps) still runs on top, so a hit is never
/// trusted blindly.
///
/// The same class serves both cache levels of incr::Session: the local
/// store (`gilr verify --incr-store DIR`) and the shared one
/// (`--shared-cache DIR`, the gilrd `--cache-dir`), which several daemons
/// or CI jobs may use at once. Record payloads are incr/Record.h
/// encodings.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_INCR_RECORDSTORE_H
#define GILR_INCR_RECORDSTORE_H

#include "incr/DepGraph.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>

namespace gilr {
namespace incr {

/// 128-bit content-address of one record.
struct CacheKey {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  bool operator<(const CacheKey &O) const {
    return Hi != O.Hi ? Hi < O.Hi : Lo < O.Lo;
  }
  bool operator==(const CacheKey &O) const { return Hi == O.Hi && Lo == O.Lo; }

  /// 32 lowercase hex digits (Hi then Lo); the record's file name.
  std::string hex() const;
};

/// The cache key of an obligation verdict: side + name + the obligation's
/// own fingerprint + the configuration fingerprint it was produced under
/// (fpAutomation for proofs, fpAnalysisConfig for lint verdicts).
CacheKey obligationCacheKey(Side S, const std::string &Name, uint64_t SelfFp,
                            uint64_t ConfigFp);

/// The fixed keys of the local store's solver-entry and index records.
CacheKey solverEntriesKey();
CacheKey storeIndexKey();

/// Identity of one record file as written: a replaced file is a new inode.
struct FileStamp {
  uint64_t Ino = 0;
  uint64_t Size = 0;
  uint64_t MtimeNs = 0;
  bool operator==(const FileStamp &O) const {
    return Ino == O.Ino && Size == O.Size && MtimeNs == O.MtimeNs;
  }
};

/// Counters of one store instance (monotonic over its lifetime).
struct RecordStoreStats {
  uint64_t Gets = 0;
  uint64_t Hits = 0;
  /// Records written (created or replaced).
  uint64_t Puts = 0;
  /// Puts skipped because the record already held the same bytes.
  uint64_t PutsSkipped = 0;
  uint64_t Evictions = 0;
  uint64_t GcRuns = 0;
  /// Record bytes and records after the last GC.
  uint64_t Bytes = 0;
  uint64_t Entries = 0;
};

/// Configuration of a RecordStore.
struct RecordStoreConfig {
  /// Root directory, created on the first write. Records live under
  /// objects/.
  std::string Dir;
  /// Record-byte budget enforced by gc() (0 = unlimited: gc() evicts
  /// nothing and gets skip the read-time LRU bookkeeping).
  uint64_t SizeBudgetBytes = 0;
  /// In-memory copy of record blobs, so a resident daemon serves repeat
  /// gets without reading the file (one stat checks that no other process
  /// replaced it). 0 disables it.
  std::size_t MemCacheEntries = 4096;
};

/// A record directory. Layout:
///
///   <dir>/objects/<hh>/<30 hex>.rec
///
/// where <hh> is the first two hex digits of the key (256-way fan-out) and
/// the file name the remaining 30. Each record file carries the magic
/// "GILRCAS1", a format version, the full key (guarding against renamed or
/// misplaced files) and an FNV-1a checksum over the payload; any mismatch
/// reads as a miss. A put replaces the record unless it already holds the
/// same bytes: the new file is written to a unique temp file in the same
/// directory and renamed into place, so a crash or a concurrent writer
/// never leaves a torn record behind. With a size budget, gets refresh the
/// record's mtime and gc() evicts unpinned records oldest-mtime-first
/// (LRU) while the total exceeds the budget. gc() also removes temp files
/// older than an hour (crashed writers), budget or not; a second gc() with
/// no intervening traffic evicts nothing.
///
/// Thread-safe: scheduler workers and daemon request handlers call
/// get/put concurrently.
class RecordStore {
public:
  explicit RecordStore(RecordStoreConfig Cfg);

  /// Why the directory is unusable (\c Dir names something that is not a
  /// directory), or empty. An unusable store is never written.
  const std::string &error() const { return Error; }

  /// Fills \p Blob with the record stored under \p K. A miss (false) is
  /// never an error: missing, corrupt or concurrently evicted records read
  /// as misses.
  bool get(const CacheKey &K, std::string &Blob);

  enum class PutResult { Written, Unchanged, Failed };
  /// Stores \p Blob under \p K, replacing any other record there. On
  /// failure, \p Why (if given) receives the reason.
  PutResult put(const CacheKey &K, const std::string &Blob,
                std::string *Why = nullptr);

  /// Removes the record under \p K, if any.
  void remove(const CacheKey &K);

  /// Walks the directory: removes stale temp files and enforces the size
  /// budget, never evicting a key in \p Pinned (the keys of the run in
  /// progress).
  void gc(const std::set<CacheKey> &Pinned = {});

  RecordStoreStats stats() const;
  const RecordStoreConfig &config() const { return Cfg; }

  /// The record file path for \p K (under objects/). Exposed for tests.
  std::string recordPath(const CacheKey &K) const;

private:
  bool readRecordFile(const std::string &Path, const CacheKey &K,
                      std::string &Blob, FileStamp &Stamp) const;
  /// Fills \p Blob from the in-memory copy of \p K if the file at \p Path
  /// is still the one it came from; drops a stale copy.
  bool current(const CacheKey &K, const std::string &Path, std::string &Blob);
  /// Keeps \p Blob as the in-memory copy of \p K (overwriting an older
  /// one). Callers hold Mu.
  void remember(const CacheKey &K, const std::string &Blob,
                const FileStamp &Stamp);

  struct MemEntry {
    std::string Blob;
    FileStamp Stamp;
  };

  RecordStoreConfig Cfg;
  std::string Error;
  mutable std::mutex Mu;
  std::map<CacheKey, MemEntry> Mem;
  RecordStoreStats St;
};

} // namespace incr
} // namespace gilr

#endif // GILR_INCR_RECORDSTORE_H

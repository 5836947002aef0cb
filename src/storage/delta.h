#ifndef PHOTON_STORAGE_DELTA_H_
#define PHOTON_STORAGE_DELTA_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "io/caching_store.h"
#include "storage/format.h"
#include "storage/object_store.h"

namespace photon {

/// Per-data-file entry in the transaction log, carrying the zone-map stats
/// the scanner uses for data skipping (the paper's Lakehouse stack gets
/// this from Delta Lake + Parquet footers; §2.1).
struct DeltaFileEntry {
  std::string key;  // object-store key of the data file
  int64_t num_rows = 0;
  /// Per-column min/max/null-count, aggregated over the file's row groups.
  std::vector<ColumnChunkMeta> column_stats;
};

/// A consistent view of the table at one log version.
struct DeltaSnapshot {
  int64_t version = -1;
  Schema schema;
  std::vector<DeltaFileEntry> files;

  int64_t num_rows() const {
    int64_t n = 0;
    for (const DeltaFileEntry& f : files) n += f.num_rows;
    return n;
  }
};

/// One optimistic transaction against the log (DESIGN.md §15). The writer
/// stages its data files first (WriteDataFile), then describes what it
/// read and what it changes; Commit claims the next log version atomically
/// and re-validates this read set against every commit that landed after
/// `read_version` before retrying a lost claim.
///
/// Conflict rules (conservative, always sound):
///   - a concurrent commit REMOVED a file in `remove_keys` (remove/remove:
///     both transactions rewrote or deleted the same file), or
///   - a concurrent commit REMOVED a file in `read_files` (a file whose
///     content this transaction's writes were derived from), or
///   - `reads_all_files` and the concurrent commit added or removed any
///     file (e.g. MERGE, whose matched/not-matched split reads the whole
///     table), or
///   - `read_predicate` is set and a concurrently ADDED file's zone-map
///     stats may contain matching rows (a phantom for this DELETE/UPDATE),
///   - or the concurrent commit changed the schema.
/// Any of these aborts with Status::CommitConflict; blind appends have an
/// empty read set and therefore never conflict, they only retry the claim.
struct DeltaTransaction {
  /// Snapshot version the transaction read (validation starts after it).
  int64_t read_version = -1;
  /// Schema at read time (used to decode stats of concurrent commits).
  Schema schema;
  /// Keys whose *content* this transaction depends on. Usually a superset
  /// of remove_keys (you read what you rewrite).
  std::vector<std::string> read_files;
  /// The transaction's matched/not-matched logic read every file (MERGE).
  bool reads_all_files = false;
  /// When set, files added concurrently whose stats may match this
  /// predicate conflict (phantom protection for predicate-scoped DML).
  ExprPtr read_predicate;

  std::vector<std::string> remove_keys;
  std::vector<DeltaFileEntry> add_files;
};

/// A minimal Delta-Lake-style transactional table layer over the object
/// store (see DESIGN.md substitutions): an append-only log of versioned
/// commits under `<path>/_delta_log/`, each holding metadata / add-file /
/// remove-file actions. Provides snapshots (time travel), optimistic
/// concurrent commits with read-set validation (DESIGN.md §15), and
/// stats-based file skipping.
class DeltaTable {
 public:
  /// Creates a new table (commits version 0 with the schema).
  static Result<std::unique_ptr<DeltaTable>> Create(ObjectStore* store,
                                                    std::string path,
                                                    Schema schema);
  /// Opens an existing table.
  static Result<std::unique_ptr<DeltaTable>> Open(ObjectStore* store,
                                                  std::string path);

  const std::string& path() const { return path_; }
  ObjectStore* store() const { return store_; }

  /// Latest committed version.
  Result<int64_t> LatestVersion() const;

  /// Snapshot at `version` (-1 = latest). This is Delta's time travel.
  Result<DeltaSnapshot> Snapshot(int64_t version = -1) const;

  /// Writes `table` as a data file and commits an add-file transaction.
  /// Blind appends never conflict; the commit retries a lost version claim
  /// internally. Returns the new version, or InvalidArgument on a schema
  /// mismatch (user-supplied DML reaches this path via the service).
  Result<int64_t> Append(const Table& data, FormatWriteOptions options = {});

  /// Commits a transaction that removes `remove_keys` and adds the data
  /// files of `add` (compaction/ETL rewrites). The removed files form the
  /// read set, so a concurrent rewrite of any of them aborts with
  /// CommitConflict — the caller re-reads and retries. Returns version.
  Result<int64_t> Rewrite(const std::vector<std::string>& remove_keys,
                          const Table& add,
                          FormatWriteOptions options = {});

  /// Stages `data` as a new data file (unique key, zone-map + NDV stats
  /// aggregated exactly as Append persists them) WITHOUT committing. The
  /// caller owns the staged object until a Commit carrying the entry wins;
  /// on abort/cancel it must ReleaseDataFile the key.
  Result<DeltaFileEntry> WriteDataFile(const Table& data,
                                       FormatWriteOptions options = {});

  /// Deletes a staged (never-committed) data file. Safe to call on a key
  /// that is already gone.
  void ReleaseDataFile(const std::string& key);

  /// Optimistic-concurrency commit (the tentpole protocol): claims version
  /// read_version+1.. with PutIfAbsent; on losing a claim, replays every
  /// intervening commit and validates `tx`'s read set (see
  /// DeltaTransaction), then retries with capped backoff. Returns the
  /// committed version, CommitConflict on a real conflict, or the store's
  /// error. On CommitConflict the transaction's staged files are NOT
  /// released — the caller decides whether to reuse or release them.
  Result<int64_t> Commit(const DeltaTransaction& tx);

  /// Routes log replay (Snapshot/LatestVersion reads) through an IO block
  /// cache: replaying version v re-reads every log object 0..v, so a warm
  /// cache turns repeated snapshots into memory reads. The cache is
  /// borrowed and may be shared with scans.
  void SetIoCache(io::BlockCache* cache);

  /// Files of `snapshot` that may contain rows matching `predicate`,
  /// using per-column min/max stats (data skipping / file pruning, §2.1).
  /// The predicate's column indices refer to `columns`, a projection of
  /// the snapshot schema, or to the full schema when `columns` is empty.
  /// A null predicate returns all files.
  static std::vector<DeltaFileEntry> PruneFiles(
      const DeltaSnapshot& snapshot, const ExprPtr& predicate,
      const std::vector<int>& columns = {});

 private:
  DeltaTable(ObjectStore* store, std::string path);

  std::string LogKey(int64_t version) const;
  /// One committed log version, decoded for read-set validation.
  struct LogActions {
    bool schema_changed = false;
    std::vector<DeltaFileEntry> adds;
    std::vector<std::string> removes;
  };
  Result<LogActions> ReadLogActions(int64_t version,
                                    const Schema& schema) const;
  /// CommitConflict iff the commit at `version` invalidates `tx`'s reads.
  Status ValidateAgainst(const DeltaTransaction& tx, int64_t version) const;

  /// Reads one log object, through the cache when one is attached.
  Result<std::shared_ptr<const std::string>> ReadLog(int64_t version) const;

  ObjectStore* store_;
  std::string path_;
  /// Data-file keys are `file-<instance nonce>-<seq>.pho`: the nonce is
  /// process-unique per DeltaTable handle and the sequence atomic, so
  /// concurrent writers — including two handles onto the same table —
  /// can never stage to the same key.
  const int64_t instance_nonce_;
  std::atomic<int64_t> file_seq_{0};
  /// Cached read path for log replay; null = direct store reads.
  std::unique_ptr<io::CachingStore> io_;
};

/// False only when some conjunct of `predicate` of the form `col <op> c`
/// or `col BETWEEN c1 AND c2` provably matches no row given the [min, max]
/// `stats` of a file or row group. Each `c` is a literal or a literal-only
/// subtree such as `CAST(100 AS int64)`, folded exactly. The predicate's
/// column i has stats[columns[i]] (a projection), or stats[i] when
/// `columns` is empty.
bool StatsMayMatch(const Expr& predicate,
                   const std::vector<ColumnChunkMeta>& stats,
                   const std::vector<int>& columns = {});

}  // namespace photon

#endif  // PHOTON_STORAGE_DELTA_H_

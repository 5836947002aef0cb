#include "storage/delta.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "expr/program.h"

namespace photon {
namespace {

/// Process-unique nonce per DeltaTable handle (see file_seq_ docs).
std::atomic<int64_t> g_table_instance_counter{0};

// Log record kinds.
constexpr uint8_t kActionMetadata = 0;
constexpr uint8_t kActionAddFile = 1;
constexpr uint8_t kActionRemoveFile = 2;

void WriteSchemaAction(const Schema& schema, BinaryWriter* out) {
  out->WriteU8(kActionMetadata);
  out->WriteVarU64(schema.num_fields());
  for (const Field& f : schema.fields()) {
    out->WriteString(f.name);
    out->WriteU8(static_cast<uint8_t>(f.type.id()));
    out->WriteU8(static_cast<uint8_t>(f.type.precision()));
    out->WriteU8(static_cast<uint8_t>(f.type.scale()));
    out->WriteU8(f.nullable ? 1 : 0);
  }
}

void WriteAddFileAction(const DeltaFileEntry& entry, const Schema& schema,
                        BinaryWriter* out) {
  out->WriteU8(kActionAddFile);
  out->WriteString(entry.key);
  out->WriteVarU64(static_cast<uint64_t>(entry.num_rows));
  out->WriteVarU64(entry.column_stats.size());
  for (size_t c = 0; c < entry.column_stats.size(); c++) {
    const ColumnChunkMeta& s = entry.column_stats[c];
    out->WriteVarU64(static_cast<uint64_t>(s.null_count));
    out->WriteU8(s.has_min_max ? 1 : 0);
    if (s.has_min_max) {
      WriteTypedValue(schema.field(static_cast<int>(c)).type, s.min, out);
      WriteTypedValue(schema.field(static_cast<int>(c)).type, s.max, out);
    }
    s.ndv.Serialize(out);
  }
}

/// Aggregates per-row-group stats into one per-file stats vector.
std::vector<ColumnChunkMeta> AggregateStats(const FileMeta& meta) {
  std::vector<ColumnChunkMeta> out(meta.schema.num_fields());
  for (const RowGroupMeta& rg : meta.row_groups) {
    for (size_t c = 0; c < rg.columns.size(); c++) {
      const ColumnChunkMeta& chunk = rg.columns[c];
      out[c].null_count += chunk.null_count;
      out[c].ndv.Merge(chunk.ndv);
      if (chunk.has_min_max) {
        if (!out[c].has_min_max) {
          out[c].min = chunk.min;
          out[c].max = chunk.max;
          out[c].has_min_max = true;
        } else {
          if (chunk.min.Compare(out[c].min) < 0) out[c].min = chunk.min;
          if (chunk.max.Compare(out[c].max) > 0) out[c].max = chunk.max;
        }
      }
    }
  }
  return out;
}

/// Decodes one log payload. `schema` is the table schema *before* this
/// version (needed to decode add-file stats); when the payload carries a
/// metadata action, `*schema_out` receives the new schema and
/// `*schema_changed` is set. Adds/removes append in payload order.
Status DecodeLogPayload(const std::string& bytes, const Schema& schema,
                        bool* schema_changed, Schema* schema_out,
                        std::vector<DeltaFileEntry>* adds,
                        std::vector<std::string>* removes) {
  *schema_changed = false;
  *schema_out = schema;
  BinaryReader reader(bytes);
  while (reader.remaining() > 0) {
    uint8_t action = 0;
    PHOTON_RETURN_NOT_OK(reader.ReadU8(&action));
    switch (action) {
      case kActionMetadata: {
        uint64_t num_fields = 0;
        PHOTON_RETURN_NOT_OK(reader.ReadVarU64(&num_fields));
        Schema next;
        for (uint64_t i = 0; i < num_fields; i++) {
          std::string name;
          uint8_t type_id = 0, precision = 0, scale = 0, nullable = 0;
          PHOTON_RETURN_NOT_OK(reader.ReadString(&name));
          PHOTON_RETURN_NOT_OK(reader.ReadU8(&type_id));
          PHOTON_RETURN_NOT_OK(reader.ReadU8(&precision));
          PHOTON_RETURN_NOT_OK(reader.ReadU8(&scale));
          PHOTON_RETURN_NOT_OK(reader.ReadU8(&nullable));
          DataType type =
              static_cast<TypeId>(type_id) == TypeId::kDecimal128
                  ? DataType::Decimal(precision, scale)
                  : DataType(static_cast<TypeId>(type_id));
          next.AddField(Field(name, type, nullable != 0));
        }
        *schema_out = std::move(next);
        *schema_changed = true;
        break;
      }
      case kActionAddFile: {
        DeltaFileEntry entry;
        uint64_t rows = 0, num_stats = 0;
        PHOTON_RETURN_NOT_OK(reader.ReadString(&entry.key));
        PHOTON_RETURN_NOT_OK(reader.ReadVarU64(&rows));
        entry.num_rows = static_cast<int64_t>(rows);
        PHOTON_RETURN_NOT_OK(reader.ReadVarU64(&num_stats));
        for (uint64_t c = 0; c < num_stats; c++) {
          ColumnChunkMeta s;
          uint64_t null_count = 0;
          uint8_t has_stats = 0;
          PHOTON_RETURN_NOT_OK(reader.ReadVarU64(&null_count));
          s.null_count = static_cast<int64_t>(null_count);
          PHOTON_RETURN_NOT_OK(reader.ReadU8(&has_stats));
          s.has_min_max = has_stats != 0;
          if (s.has_min_max) {
            const DataType& type =
                schema_out->field(static_cast<int>(c)).type;
            PHOTON_RETURN_NOT_OK(ReadTypedValue(type, &reader, &s.min));
            PHOTON_RETURN_NOT_OK(ReadTypedValue(type, &reader, &s.max));
          }
          PHOTON_RETURN_NOT_OK(NdvSketch::Deserialize(&reader, &s.ndv));
          entry.column_stats.push_back(std::move(s));
        }
        adds->push_back(std::move(entry));
        break;
      }
      case kActionRemoveFile: {
        std::string key;
        PHOTON_RETURN_NOT_OK(reader.ReadString(&key));
        removes->push_back(std::move(key));
        break;
      }
      default:
        return Status::IoError("unknown delta action");
    }
  }
  return Status::OK();
}

}  // namespace

DeltaTable::DeltaTable(ObjectStore* store, std::string path)
    : store_(store),
      path_(std::move(path)),
      instance_nonce_(
          g_table_instance_counter.fetch_add(1, std::memory_order_relaxed)) {}

std::string DeltaTable::LogKey(int64_t version) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020lld",
                static_cast<long long>(version));
  return path_ + "/_delta_log/" + buf;
}

Result<std::unique_ptr<DeltaTable>> DeltaTable::Create(ObjectStore* store,
                                                       std::string path,
                                                       Schema schema) {
  auto table =
      std::unique_ptr<DeltaTable>(new DeltaTable(store, std::move(path)));
  BinaryWriter log;
  WriteSchemaAction(schema, &log);
  // Atomic claim of version 0: two racing Create calls cannot both succeed
  // (the old List-then-Put check was a TOCTOU — both saw an empty log, and
  // the loser's schema commit was silently overwritten).
  PHOTON_ASSIGN_OR_RETURN(
      bool won, store->PutIfAbsent(table->LogKey(0), log.ToString()));
  if (!won) {
    return Status::InvalidArgument("delta table already exists at '" +
                                   table->path_ + "'");
  }
  return table;
}

Result<std::unique_ptr<DeltaTable>> DeltaTable::Open(ObjectStore* store,
                                                     std::string path) {
  auto table =
      std::unique_ptr<DeltaTable>(new DeltaTable(store, std::move(path)));
  if (store->List(table->path_ + "/_delta_log/").empty()) {
    return Status::KeyError("no delta table at '" + table->path_ + "'");
  }
  return table;
}

Result<int64_t> DeltaTable::LatestVersion() const {
  std::vector<std::string> logs = store_->List(path_ + "/_delta_log/");
  if (logs.empty()) return Status::KeyError("empty delta log");
  const std::string& last = logs.back();
  return static_cast<int64_t>(
      std::stoll(last.substr(last.find_last_of('/') + 1)));
}

void DeltaTable::SetIoCache(io::BlockCache* cache) {
  if (cache == nullptr) {
    io_ = nullptr;
    return;
  }
  io::IoOptions options;
  options.cache = cache;
  io_ = std::make_unique<io::CachingStore>(store_, options);
}

Result<std::shared_ptr<const std::string>> DeltaTable::ReadLog(
    int64_t version) const {
  // Log objects are immutable once committed (append-only log), so caching
  // them is always safe.
  if (io_ != nullptr) return io_->Get(LogKey(version));
  PHOTON_ASSIGN_OR_RETURN(std::string bytes, store_->Get(LogKey(version)));
  return std::make_shared<const std::string>(std::move(bytes));
}

Result<DeltaSnapshot> DeltaTable::Snapshot(int64_t version) const {
  if (version < 0) {
    PHOTON_ASSIGN_OR_RETURN(version, LatestVersion());
  }
  DeltaSnapshot snapshot;
  snapshot.version = version;
  // Replay the log from version 0 (no checkpoints in this implementation).
  std::vector<DeltaFileEntry> files;
  for (int64_t v = 0; v <= version; v++) {
    Result<std::shared_ptr<const std::string>> log = ReadLog(v);
    if (!log.ok()) {
      return Status::KeyError("missing delta log version " +
                              std::to_string(v));
    }
    bool schema_changed = false;
    Schema schema_after;
    std::vector<DeltaFileEntry> adds;
    std::vector<std::string> removes;
    PHOTON_RETURN_NOT_OK(DecodeLogPayload(**log, snapshot.schema,
                                          &schema_changed, &schema_after,
                                          &adds, &removes));
    snapshot.schema = std::move(schema_after);
    for (const std::string& key : removes) {
      files.erase(std::remove_if(
                      files.begin(), files.end(),
                      [&](const DeltaFileEntry& f) { return f.key == key; }),
                  files.end());
    }
    for (DeltaFileEntry& entry : adds) files.push_back(std::move(entry));
  }
  snapshot.files = std::move(files);
  return snapshot;
}

Result<DeltaTable::LogActions> DeltaTable::ReadLogActions(
    int64_t version, const Schema& schema) const {
  Result<std::shared_ptr<const std::string>> log = ReadLog(version);
  if (!log.ok()) {
    return Status::KeyError("missing delta log version " +
                            std::to_string(version));
  }
  LogActions acts;
  Schema ignored;
  PHOTON_RETURN_NOT_OK(DecodeLogPayload(**log, schema, &acts.schema_changed,
                                        &ignored, &acts.adds,
                                        &acts.removes));
  return acts;
}

Status DeltaTable::ValidateAgainst(const DeltaTransaction& tx,
                                   int64_t version) const {
  PHOTON_ASSIGN_OR_RETURN(LogActions acts,
                          ReadLogActions(version, tx.schema));
  auto conflict = [&](const std::string& why) {
    return Status::CommitConflict("concurrent commit " +
                                  std::to_string(version) + " of '" + path_ +
                                  "' " + why);
  };
  if (acts.schema_changed && version > 0) {
    return conflict("changed the table schema");
  }
  if (tx.reads_all_files && (!acts.adds.empty() || !acts.removes.empty())) {
    return conflict(
        "added or removed files under a full-table read set (MERGE "
        "matched/not-matched split)");
  }
  for (const std::string& removed : acts.removes) {
    for (const std::string& mine : tx.remove_keys) {
      if (removed == mine) {
        return conflict("already rewrote file '" + removed +
                        "' (remove/remove)");
      }
    }
    for (const std::string& read : tx.read_files) {
      if (removed == read) {
        return conflict("rewrote file '" + removed +
                        "' this transaction read");
      }
    }
  }
  if (tx.read_predicate != nullptr) {
    for (const DeltaFileEntry& add : acts.adds) {
      if (StatsMayMatch(*tx.read_predicate, add.column_stats)) {
        return conflict("added file '" + add.key +
                        "' whose rows may match this transaction's "
                        "predicate (phantom)");
      }
    }
  }
  return Status::OK();
}

Result<int64_t> DeltaTable::Commit(const DeltaTransaction& tx) {
  BinaryWriter log;
  for (const std::string& remove : tx.remove_keys) {
    log.WriteU8(kActionRemoveFile);
    log.WriteString(remove);
  }
  for (const DeltaFileEntry& add : tx.add_files) {
    WriteAddFileAction(add, tx.schema, &log);
  }
  const std::string payload = log.ToString();

  PHOTON_ASSIGN_OR_RETURN(int64_t latest, LatestVersion());
  int64_t version = std::max(latest, tx.read_version) + 1;
  // Every commit in (read_version, version) must pass read-set validation;
  // `validated` tracks how far we have replayed so a retried claim only
  // validates the commits that landed since the last attempt.
  int64_t validated = tx.read_version;
  constexpr int kMaxClaimAttempts = 64;
  for (int attempt = 0; attempt < kMaxClaimAttempts; attempt++) {
    for (int64_t v = validated + 1; v < version; v++) {
      PHOTON_RETURN_NOT_OK(ValidateAgainst(tx, v));
      validated = v;
    }
    PHOTON_ASSIGN_OR_RETURN(bool won,
                            store_->PutIfAbsent(LogKey(version), payload));
    if (won) return version;
    // Lost the claim — a concurrent writer owns `version`. Capped backoff
    // (every lost claim means someone else committed, so the system as a
    // whole always makes progress), then validate what landed and move to
    // the next free slot.
    std::this_thread::sleep_for(std::chrono::microseconds(
        std::min<int64_t>(int64_t{20} << std::min(attempt, 6), 1000)));
    PHOTON_ASSIGN_OR_RETURN(latest, LatestVersion());
    version = std::max(latest, version) + 1;
  }
  return Status::IoError("delta commit on '" + path_ + "' lost " +
                         std::to_string(kMaxClaimAttempts) +
                         " version claims; giving up");
}

Result<DeltaFileEntry> DeltaTable::WriteDataFile(const Table& data,
                                                 FormatWriteOptions options) {
  std::string key =
      path_ + "/data/file-" + std::to_string(instance_nonce_) + "-" +
      std::to_string(file_seq_.fetch_add(1, std::memory_order_relaxed)) +
      ".pho";
  PHOTON_ASSIGN_OR_RETURN(FileMeta meta,
                          WriteTableToStore(data, store_, key, options));
  DeltaFileEntry entry;
  entry.key = key;
  entry.num_rows = meta.num_rows();
  // Aggregated zone maps + per-column HLL NDV sketches — identical for
  // every write path (Append, DML rewrite, compaction), which is what
  // keeps StatsFromSnapshot honest after copy-on-write churn.
  entry.column_stats = AggregateStats(meta);
  return entry;
}

void DeltaTable::ReleaseDataFile(const std::string& key) {
  Status s = store_->Delete(key);
  (void)s;  // already-gone is fine
}

Result<int64_t> DeltaTable::Append(const Table& data,
                                   FormatWriteOptions options) {
  PHOTON_ASSIGN_OR_RETURN(DeltaSnapshot snapshot, Snapshot());
  if (!(data.schema() == snapshot.schema)) {
    return Status::InvalidArgument(
        "append schema does not match table schema of '" + path_ + "'");
  }
  PHOTON_ASSIGN_OR_RETURN(DeltaFileEntry entry,
                          WriteDataFile(data, options));
  DeltaTransaction tx;
  tx.read_version = snapshot.version;
  tx.schema = snapshot.schema;
  tx.add_files.push_back(std::move(entry));
  // Blind append: empty read set, so Commit can only lose claims (and
  // retry), never conflict.
  Result<int64_t> version = Commit(tx);
  if (!version.ok()) ReleaseDataFile(tx.add_files[0].key);
  return version;
}

Result<int64_t> DeltaTable::Rewrite(const std::vector<std::string>& remove_keys,
                                    const Table& add,
                                    FormatWriteOptions options) {
  PHOTON_ASSIGN_OR_RETURN(DeltaSnapshot snapshot, Snapshot());
  if (!(add.schema() == snapshot.schema)) {
    return Status::InvalidArgument(
        "rewrite schema does not match table schema of '" + path_ + "'");
  }
  // Every removed file must still be live in the snapshot this commit
  // reads. Read-set validation only covers commits AFTER read_version; a
  // file that was already rewritten before we snapshotted would otherwise
  // slip through and duplicate its rows (remove of a dead key is a no-op
  // in replay, but the add is not).
  for (const std::string& key : remove_keys) {
    bool live = false;
    for (const DeltaFileEntry& file : snapshot.files) {
      if (file.key == key) {
        live = true;
        break;
      }
    }
    if (!live) {
      return Status::CommitConflict("concurrent commit already rewrote or "
                                    "deleted file '" +
                                    key + "' (remove/remove)");
    }
  }
  PHOTON_ASSIGN_OR_RETURN(DeltaFileEntry entry, WriteDataFile(add, options));
  DeltaTransaction tx;
  tx.read_version = snapshot.version;
  tx.schema = snapshot.schema;
  tx.read_files = remove_keys;  // a rewrite reads what it replaces
  tx.remove_keys = remove_keys;
  tx.add_files.push_back(std::move(entry));
  Result<int64_t> version = Commit(tx);
  if (!version.ok()) ReleaseDataFile(tx.add_files[0].key);
  return version;
}

// ---------------------------------------------------------------------------
// Data skipping
// ---------------------------------------------------------------------------

namespace {

/// `e` as a literal: itself, or the fold of a literal-only subtree such as
/// CAST(100 AS int64). Folding is exact, so pruning on it stays sound.
std::shared_ptr<const LiteralExpr> AsLiteral(const ExprPtr& e) {
  auto lit = std::dynamic_pointer_cast<const LiteralExpr>(TryFoldConst(e));
  if (lit == nullptr || lit->value().is_null()) return nullptr;
  return lit;
}

/// File or row-group stats, indexed like the predicate's columns: column i
/// is stats[columns[i]], or stats[i] when `columns` is empty.
struct StatsView {
  const std::vector<ColumnChunkMeta>& stats;
  const std::vector<int>& columns;

  const ColumnChunkMeta* Column(int i) const {
    if (!columns.empty()) {
      if (i < 0 || i >= static_cast<int>(columns.size())) return nullptr;
      i = columns[i];
    }
    if (i < 0 || i >= static_cast<int>(stats.size())) return nullptr;
    return &stats[i];
  }
};

/// The stats of `col` when they can be compared with `lit`, else null.
const ColumnChunkMeta* ComparableStats(const Expr* col,
                                       const LiteralExpr& lit,
                                       const StatsView& stats) {
  const auto* ref = dynamic_cast<const ColumnRefExpr*>(col);
  if (ref == nullptr) return nullptr;
  const ColumnChunkMeta* column = stats.Column(ref->index());
  if (column == nullptr) return nullptr;
  const ColumnChunkMeta& s = *column;
  if (!s.has_min_max) return nullptr;
  // Literal type must match the stats type for Compare to be meaningful.
  const Value& v = lit.value();
  if (v.is_string() != s.min.is_string() || v.is_date() != s.min.is_date()) {
    return nullptr;
  }
  // Decimal values carry no scale: compare only at the column's own.
  if (lit.type().is_decimal() &&
      lit.type().scale() != ref->type().scale()) {
    return nullptr;
  }
  return &s;
}

/// Checks one conjunct of the form (colref cmp constant) — or
/// (colref BETWEEN constant AND constant) — against stats. Returns false
/// only when the conjunct provably matches nothing.
bool ConjunctMayMatch(const Expr& expr, const StatsView& stats) {
  if (const auto* between = dynamic_cast<const BetweenExpr*>(&expr)) {
    std::vector<ExprPtr> kids = between->children();
    auto lo = AsLiteral(kids[1]);
    auto hi = AsLiteral(kids[2]);
    if (lo == nullptr || hi == nullptr) return true;
    const ColumnChunkMeta* s = ComparableStats(kids[0].get(), *lo, stats);
    if (s == nullptr) return true;
    // Overlap test: [lo, hi] vs [min, max].
    return hi->value().Compare(s->min) >= 0 &&
           lo->value().Compare(s->max) <= 0;
  }

  const auto* cmp = dynamic_cast<const ComparisonExpr*>(&expr);
  if (cmp == nullptr) return true;
  std::vector<ExprPtr> children = cmp->children();
  const Expr* col = children[0].get();
  std::shared_ptr<const LiteralExpr> lit;
  CmpOp op = cmp->op();
  if (dynamic_cast<const ColumnRefExpr*>(col) != nullptr) {
    lit = AsLiteral(children[1]);
  } else {
    // constant OP col  ==  col OP' constant with the operator mirrored.
    col = children[1].get();
    lit = AsLiteral(children[0]);
    switch (op) {
      case CmpOp::kLt:
        op = CmpOp::kGt;
        break;
      case CmpOp::kLe:
        op = CmpOp::kGe;
        break;
      case CmpOp::kGt:
        op = CmpOp::kLt;
        break;
      case CmpOp::kGe:
        op = CmpOp::kLe;
        break;
      default:
        break;
    }
  }
  if (lit == nullptr) return true;
  const ColumnChunkMeta* s = ComparableStats(col, *lit, stats);
  if (s == nullptr) return true;
  const Value& v = lit->value();
  switch (op) {
    case CmpOp::kEq:
      return v.Compare(s->min) >= 0 && v.Compare(s->max) <= 0;
    case CmpOp::kLt:
      return s->min.Compare(v) < 0;
    case CmpOp::kLe:
      return s->min.Compare(v) <= 0;
    case CmpOp::kGt:
      return s->max.Compare(v) > 0;
    case CmpOp::kGe:
      return s->max.Compare(v) >= 0;
    case CmpOp::kNe:
      return true;  // almost never prunable
  }
  return true;
}

void CollectConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  const auto* boolean = dynamic_cast<const BooleanExpr*>(e);
  if (boolean != nullptr && boolean->op() == BoolOp::kAnd) {
    std::vector<ExprPtr> children = boolean->children();
    CollectConjuncts(children[0].get(), out);
    CollectConjuncts(children[1].get(), out);
    return;
  }
  out->push_back(e);
}

}  // namespace

bool StatsMayMatch(const Expr& predicate,
                   const std::vector<ColumnChunkMeta>& stats,
                   const std::vector<int>& columns) {
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(&predicate, &conjuncts);
  const StatsView view{stats, columns};
  for (const Expr* conjunct : conjuncts) {
    if (!ConjunctMayMatch(*conjunct, view)) return false;
  }
  return true;
}

std::vector<DeltaFileEntry> DeltaTable::PruneFiles(
    const DeltaSnapshot& snapshot, const ExprPtr& predicate,
    const std::vector<int>& columns) {
  if (predicate == nullptr) return snapshot.files;
  std::vector<DeltaFileEntry> out;
  for (const DeltaFileEntry& file : snapshot.files) {
    if (StatsMayMatch(*predicate, file.column_stats, columns)) {
      out.push_back(file);
    }
  }
  return out;
}

}  // namespace photon

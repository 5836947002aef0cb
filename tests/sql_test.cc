#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/time_util.h"
#include "exec/dml.h"
#include "exec/driver.h"
#include "expr/builder.h"
#include "expr/program.h"
#include "obs/profile.h"
#include "opt/optimizer.h"
#include "plan/logical_plan.h"
#include "sql/analyzer.h"
#include "sql/catalog.h"
#include "sql/lexer.h"
#include "storage/delta.h"
#include "storage/object_store.h"
#include "sql/parser.h"
#include "types/decimal.h"
#include "vector/table.h"

namespace photon {
namespace sql {
namespace {

using eb::Col;
using eb::Lit;

Table MakeTable(const Schema& schema,
                const std::vector<std::vector<Value>>& rows) {
  TableBuilder builder(schema, 4);
  for (const auto& row : rows) builder.AppendRow(row);
  return builder.Finish();
}

Value Dec(const std::string& text, int scale) {
  Decimal128 d;
  PHOTON_CHECK(Decimal128::FromString(text, scale, &d));
  return Value::Decimal(d);
}

Value Date(const std::string& text) {
  int32_t days = 0;
  PHOTON_CHECK(ParseDate(text, &days));
  return Value::Date32(days);
}

/// Shared fixture: two small tables (`t` with one column of every major
/// type, `u` with integer keys) behind a catalog.
class SqlTest : public ::testing::Test {
 protected:
  SqlTest()
      : t_(MakeTable(
            Schema({Field("id", DataType::Int64()),
                    Field("v", DataType::Int32()),
                    Field("price", DataType::Decimal(12, 2)),
                    Field("name", DataType::String()),
                    Field("d", DataType::Date32()),
                    Field("x", DataType::Float64()),
                    Field("flag", DataType::Boolean())}),
            {{Value::Int64(1), Value::Int32(10), Dec("1.50", 2),
              Value::String("alpha"), Date("1995-01-01"), Value::Float64(0.5),
              Value::Boolean(true)},
             {Value::Int64(2), Value::Int32(20), Dec("2.25", 2),
              Value::String("beta"), Date("1996-06-15"), Value::Float64(1.5),
              Value::Boolean(false)},
             {Value::Int64(3), Value::Int32(20), Dec("3.00", 2),
              Value::String("gamma"), Date("1997-12-31"),
              Value::Float64(2.5), Value::Boolean(true)},
             {Value::Int64(4), Value::Int32(30), Dec("0.75", 2),
              Value::String("delta"), Date("1995-03-03"),
              Value::Float64(3.5), Value::Boolean(false)}})),
        u_(MakeTable(Schema({Field("id", DataType::Int64()),
                             Field("uv", DataType::Int64())}),
                     {{Value::Int64(1), Value::Int64(100)},
                      {Value::Int64(3), Value::Int64(300)},
                      {Value::Int64(3), Value::Int64(301)},
                      {Value::Int64(9), Value::Int64(900)}})) {
    catalog_.RegisterTable("t", &t_);
    catalog_.RegisterTable("u", &u_);
  }

  plan::PlanPtr Compile(const std::string& query) {
    Result<plan::PlanPtr> p = CompileSql(query, catalog_);
    EXPECT_TRUE(p.ok()) << query << "\n  -> " << p.status().message();
    return p.ok() ? *p : nullptr;
  }

  std::string CompileError(const std::string& query) {
    Result<plan::PlanPtr> p = CompileSql(query, catalog_);
    EXPECT_FALSE(p.ok()) << query << " unexpectedly compiled";
    return p.ok() ? "" : p.status().message();
  }

  Table Run(const std::string& query) {
    plan::PlanPtr p = Compile(query);
    PHOTON_CHECK(p != nullptr);
    exec::Driver driver(1);
    Result<Table> t = driver.RunSingleTask(p);
    PHOTON_CHECK(t.ok());
    return std::move(*t);
  }

  Table t_;
  Table u_;
  Catalog catalog_;
};

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(SqlLexerTest, GoldenTokenStream) {
  Result<std::vector<Token>> r =
      Lex("SELECT a, 1.5 FROM t -- trailing comment\nWHERE s <> 'it''s'");
  ASSERT_TRUE(r.ok());
  const std::vector<Token>& toks = *r;
  ASSERT_EQ(toks.size(), 11u);
  EXPECT_TRUE(toks[0].IsKeyword("SELECT"));
  EXPECT_EQ(toks[0].offset, 0);
  EXPECT_EQ(toks[1].kind, TokenKind::kIdent);
  EXPECT_EQ(toks[1].text, "a");
  EXPECT_TRUE(toks[2].IsSymbol(","));
  EXPECT_EQ(toks[3].kind, TokenKind::kDecimalLit);
  EXPECT_EQ(toks[3].text, "1.5");
  EXPECT_TRUE(toks[4].IsKeyword("FROM"));
  EXPECT_EQ(toks[5].text, "t");
  EXPECT_TRUE(toks[6].IsKeyword("WHERE"));  // comment skipped
  EXPECT_EQ(toks[6].offset, 41);            // first char of line 2
  EXPECT_EQ(toks[7].text, "s");
  EXPECT_TRUE(toks[8].IsSymbol("<>"));
  EXPECT_EQ(toks[9].kind, TokenKind::kStringLit);
  EXPECT_EQ(toks[9].text, "it's");  // '' collapses to '
  EXPECT_EQ(toks[10].kind, TokenKind::kEnd);
}

TEST(SqlLexerTest, KeywordsAreCaseInsensitiveIdentsAreNot) {
  Result<std::vector<Token>> r = Lex("select FooBar");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE((*r)[0].IsKeyword("SELECT"));
  EXPECT_EQ((*r)[1].kind, TokenKind::kIdent);
  EXPECT_EQ((*r)[1].text, "FooBar");
}

TEST(SqlLexerTest, NumericShapes) {
  Result<std::vector<Token>> r = Lex("1 12.50 3e2 4.5E-1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].kind, TokenKind::kIntLit);
  EXPECT_EQ((*r)[1].kind, TokenKind::kDecimalLit);
  EXPECT_EQ((*r)[2].kind, TokenKind::kFloatLit);
  EXPECT_EQ((*r)[3].kind, TokenKind::kFloatLit);
}

TEST(SqlLexerTest, UnterminatedStringHasLineColumn) {
  Result<std::vector<Token>> r = Lex("SELECT a\nFROM 'oops");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2 column 6"), std::string::npos)
      << r.status().message();
}

// ---------------------------------------------------------------------------
// Parse errors carry line:column
// ---------------------------------------------------------------------------

TEST_F(SqlTest, MissingExpressionError) {
  std::string msg = CompileError("SELECT a,\n FROM t");
  EXPECT_NE(msg.find("line 2 column 2"), std::string::npos) << msg;
}

TEST_F(SqlTest, TrailingTokensError) {
  std::string msg = CompileError("SELECT id FROM t extra junk");
  EXPECT_NE(msg.find("line 1 column"), std::string::npos) << msg;
}

TEST_F(SqlTest, UnknownTableError) {
  std::string msg = CompileError("SELECT id FROM nosuch");
  EXPECT_NE(msg.find("unknown table 'nosuch'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 1 column 16"), std::string::npos) << msg;
}

TEST_F(SqlTest, UnknownColumnError) {
  std::string msg = CompileError("SELECT zzz FROM t");
  EXPECT_NE(msg.find("unknown column 'zzz'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 1 column 8"), std::string::npos) << msg;
}

TEST_F(SqlTest, AmbiguousColumnError) {
  std::string msg =
      CompileError("SELECT id FROM t JOIN u ON t.id = u.id");
  EXPECT_NE(msg.find("ambiguous column 'id'"), std::string::npos) << msg;
}

TEST_F(SqlTest, ExpressionDepthLimitError) {
  std::string query = "SELECT ";
  for (int i = 0; i < kMaxSqlExprDepth + 50; i++) query += "(";
  query += "1";
  for (int i = 0; i < kMaxSqlExprDepth + 50; i++) query += ")";
  query += " FROM t";
  std::string msg = CompileError(query);
  EXPECT_NE(msg.find("depth limit"), std::string::npos) << msg;
}

TEST_F(SqlTest, AggregateOutsideGroupingError) {
  std::string msg = CompileError("SELECT id FROM t WHERE sum(v) > 1");
  EXPECT_NE(msg.find("aggregate function 'sum'"), std::string::npos) << msg;
}

// ---------------------------------------------------------------------------
// Typing and implicit casts: the lowered expression must be byte-identical
// (by canonical key) to the tree the eb:: builders produce by hand.
// ---------------------------------------------------------------------------

class SqlTypingTest : public SqlTest {
 protected:
  /// Canonical key of the first Project expression of `SELECT <expr> FROM t`.
  std::string ProjectCanon(const std::string& expr_sql) {
    plan::PlanPtr p = Compile("SELECT " + expr_sql + " FROM t");
    PHOTON_CHECK(p != nullptr);
    PHOTON_CHECK(p->kind == plan::PlanKind::kProject);
    return ExprCanonKey(*p->exprs[0]);
  }

  /// Canonical key of the Filter predicate of `SELECT id FROM t WHERE ...`.
  std::string WhereCanon(const std::string& pred_sql) {
    plan::PlanPtr p = Compile("SELECT id FROM t WHERE " + pred_sql);
    PHOTON_CHECK(p != nullptr);
    PHOTON_CHECK(p->kind == plan::PlanKind::kProject);
    PHOTON_CHECK(p->children[0]->kind == plan::PlanKind::kFilter);
    return ExprCanonKey(*p->children[0]->predicate);
  }

  ExprPtr id_ = Col(0, DataType::Int64(), "id");
  ExprPtr v_ = Col(1, DataType::Int32(), "v");
  ExprPtr price_ = Col(2, DataType::Decimal(12, 2), "price");
  ExprPtr name_ = Col(3, DataType::String(), "name");
  ExprPtr d_ = Col(4, DataType::Date32(), "d");
  ExprPtr x_ = Col(5, DataType::Float64(), "x");
  ExprPtr flag_ = Col(6, DataType::Boolean(), "flag");
};

TEST_F(SqlTypingTest, IntWidening) {
  EXPECT_EQ(ProjectCanon("v + id"), ExprCanonKey(*eb::Add(v_, id_)));
}

TEST_F(SqlTypingTest, DecimalIntArithmetic) {
  EXPECT_EQ(ProjectCanon("price * v"), ExprCanonKey(*eb::Mul(price_, v_)));
}

TEST_F(SqlTypingTest, FloatContagion) {
  EXPECT_EQ(ProjectCanon("x + v"), ExprCanonKey(*eb::Add(x_, v_)));
  EXPECT_EQ(ProjectCanon("price + x"), ExprCanonKey(*eb::Add(price_, x_)));
}

TEST_F(SqlTypingTest, StringLiteralComparedToDateParsesAsDate) {
  EXPECT_EQ(WhereCanon("d < '1996-01-01'"),
            ExprCanonKey(*eb::Lt(d_, Lit("1996-01-01"))));
}

TEST_F(SqlTypingTest, DateBetweenStrings) {
  EXPECT_EQ(WhereCanon("d BETWEEN '1995-01-01' AND '1995-12-31'"),
            ExprCanonKey(
                *eb::Between(d_, Lit("1995-01-01"), Lit("1995-12-31"))));
}

TEST_F(SqlTypingTest, DecimalLiteralShape) {
  // "0.05" lowers as DECIMAL(2,2), matching eb::DecimalLit.
  EXPECT_EQ(WhereCanon("price > 0.05"),
            ExprCanonKey(*eb::Gt(price_, eb::DecimalLit("0.05", 2, 2))));
}

TEST_F(SqlTypingTest, InListCoercesToValueType) {
  EXPECT_EQ(WhereCanon("id IN (1, 2)"),
            ExprCanonKey(
                *eb::In(id_, {Value::Int64(1), Value::Int64(2)})));
  EXPECT_EQ(WhereCanon("d IN ('1995-01-01')"),
            ExprCanonKey(*eb::In(d_, {Date("1995-01-01")})));
}

TEST_F(SqlTypingTest, CaseBranchesUnify) {
  // int32 THEN branch widens to the int64 ELSE branch.
  EXPECT_EQ(
      ProjectCanon("CASE WHEN flag THEN v ELSE id END"),
      ExprCanonKey(*eb::CaseWhen(
          {{flag_, eb::Cast(v_, DataType::Int64())}}, id_)));
}

TEST_F(SqlTypingTest, TypedLiterals) {
  EXPECT_EQ(WhereCanon("d < DATE '1996-01-01'"),
            ExprCanonKey(*eb::Lt(d_, eb::DateLit("1996-01-01"))));
  EXPECT_EQ(WhereCanon("price < DECIMAL(12,2) '2.00'"),
            ExprCanonKey(*eb::Lt(price_, eb::DecimalLit("2.00", 12, 2))));
  EXPECT_EQ(ProjectCanon("BIGINT '5'"), ExprCanonKey(*Lit(int64_t{5})));
}

TEST_F(SqlTypingTest, UnaryMinusFoldsIntoLiterals) {
  EXPECT_EQ(WhereCanon("v > -5"), ExprCanonKey(*eb::Gt(v_, Lit(-5))));
  EXPECT_EQ(ProjectCanon("-x"), ExprCanonKey(*eb::Sub(Lit(0.0), x_)));
}

TEST_F(SqlTypingTest, CastNullGetsRequestedType) {
  EXPECT_EQ(ProjectCanon("CAST(NULL AS BIGINT)"),
            ExprCanonKey(*eb::NullLit(DataType::Int64())));
}

TEST_F(SqlTypingTest, TypeErrors) {
  EXPECT_NE(CompileError("SELECT name + 1 FROM t").find("numeric"),
            std::string::npos);
  EXPECT_NE(CompileError("SELECT id FROM t WHERE name < 1")
                .find("cannot compare"),
            std::string::npos);
  EXPECT_NE(CompileError("SELECT NULL FROM t").find("CAST(NULL AS"),
            std::string::npos);
  EXPECT_NE(CompileError("SELECT id FROM t WHERE id % x > 0").find("'%'"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Lowering shapes
// ---------------------------------------------------------------------------

TEST_F(SqlTest, JoinLowersToHashJoinWithExtractedKeys) {
  plan::PlanPtr p =
      Compile("SELECT t.id, uv FROM t JOIN u ON t.id = u.id AND uv > 100");
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->kind, plan::PlanKind::kProject);
  const plan::PlanNode& join = *p->children[0];
  ASSERT_EQ(join.kind, plan::PlanKind::kJoin);
  EXPECT_EQ(join.join_type, JoinType::kInner);
  ASSERT_EQ(join.left_keys.size(), 1u);
  EXPECT_EQ(ExprCanonKey(*join.left_keys[0]),
            ExprCanonKey(*Col(0, DataType::Int64(), "id")));
  EXPECT_EQ(ExprCanonKey(*join.right_keys[0]),
            ExprCanonKey(*Col(0, DataType::Int64(), "id")));
  ASSERT_NE(join.residual, nullptr);  // uv > 100 is not an equi-key
  EXPECT_EQ(join.children[0]->kind, plan::PlanKind::kScan);
  EXPECT_EQ(join.children[1]->kind, plan::PlanKind::kScan);
}

TEST_F(SqlTest, LeftOuterJoinKeepsProbeRows) {
  Table r = Run(
      "SELECT t.id, uv FROM t LEFT JOIN u ON t.id = u.id ORDER BY id, uv");
  ASSERT_EQ(r.num_rows(), 5);  // id=3 matches twice; 2 and 4 null-extend
  EXPECT_EQ(r.GetRow(1)[1], Value::Null());   // id=2
  EXPECT_EQ(r.GetRow(2)[1], Value::Int64(300));
}

TEST_F(SqlTest, InSubqueryLowersToSemiJoin) {
  plan::PlanPtr p =
      Compile("SELECT id FROM t WHERE id IN (SELECT id FROM u)");
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->kind, plan::PlanKind::kProject);
  EXPECT_EQ(p->children[0]->kind, plan::PlanKind::kJoin);
  EXPECT_EQ(p->children[0]->join_type, JoinType::kLeftSemi);

  Table r = Run("SELECT id FROM t WHERE id IN (SELECT id FROM u) ORDER BY id");
  ASSERT_EQ(r.num_rows(), 2);
  EXPECT_EQ(r.GetRow(0)[0], Value::Int64(1));
  EXPECT_EQ(r.GetRow(1)[0], Value::Int64(3));
}

TEST_F(SqlTest, NotInLowersToAntiJoin) {
  Table r = Run(
      "SELECT id FROM t WHERE id NOT IN (SELECT id FROM u) ORDER BY id");
  ASSERT_EQ(r.num_rows(), 2);
  EXPECT_EQ(r.GetRow(0)[0], Value::Int64(2));
  EXPECT_EQ(r.GetRow(1)[0], Value::Int64(4));
}

TEST_F(SqlTest, CorrelatedExistsSplitsInnerAndJoinConjuncts) {
  plan::PlanPtr p = Compile(
      "SELECT id FROM t WHERE EXISTS "
      "(SELECT * FROM u WHERE u.id = t.id AND uv >= 300)");
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->kind, plan::PlanKind::kProject);
  const plan::PlanNode& join = *p->children[0];
  ASSERT_EQ(join.kind, plan::PlanKind::kJoin);
  EXPECT_EQ(join.join_type, JoinType::kLeftSemi);
  ASSERT_EQ(join.left_keys.size(), 1u);
  // uv >= 300 is uncorrelated, so it filters the build side below the join.
  EXPECT_EQ(join.children[1]->kind, plan::PlanKind::kFilter);

  Table r = Run(
      "SELECT id FROM t WHERE EXISTS "
      "(SELECT * FROM u WHERE u.id = t.id AND uv >= 300)");
  ASSERT_EQ(r.num_rows(), 1);
  EXPECT_EQ(r.GetRow(0)[0], Value::Int64(3));
}

TEST_F(SqlTest, ScalarSubqueryBroadcastsViaConstantKeyJoin) {
  Table r = Run(
      "SELECT id FROM t WHERE id * 100 >= (SELECT max(uv) FROM u) "
      "ORDER BY id");
  ASSERT_EQ(r.num_rows(), 0);  // max(uv)=900, ids reach 400
  Table r2 = Run(
      "SELECT id FROM t WHERE id * 100 >= (SELECT min(uv) FROM u) "
      "ORDER BY id");
  ASSERT_EQ(r2.num_rows(), 4);
}

TEST_F(SqlTest, GroupByWithoutProjectionIsBareAggregate) {
  plan::PlanPtr p =
      Compile("SELECT v, count(*) AS n, sum(id) AS s FROM t GROUP BY v");
  ASSERT_NE(p, nullptr);
  // SELECT list == aggregate output, so no Project is added on top.
  ASSERT_EQ(p->kind, plan::PlanKind::kAggregate);
  ASSERT_EQ(p->key_names.size(), 1u);
  EXPECT_EQ(p->key_names[0], "v");
  ASSERT_EQ(p->aggregates.size(), 2u);
  EXPECT_EQ(p->aggregates[0].name, "n");
  EXPECT_EQ(p->aggregates[1].name, "s");
  EXPECT_EQ(p->output_schema.field(1).name, "n");
}

TEST_F(SqlTest, GroupByExpressionMatchesSelectUsage) {
  Table r = Run(
      "SELECT v + 1 AS k, count(*) AS n FROM t GROUP BY v + 1 ORDER BY k");
  ASSERT_EQ(r.num_rows(), 3);
  EXPECT_EQ(r.GetRow(1)[0], Value::Int32(21));
  EXPECT_EQ(r.GetRow(1)[1], Value::Int64(2));
}

TEST_F(SqlTest, HavingFiltersAboveAggregate) {
  plan::PlanPtr p = Compile(
      "SELECT v, count(*) AS n FROM t GROUP BY v HAVING count(*) > 1");
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->kind, plan::PlanKind::kFilter);
  EXPECT_EQ(p->children[0]->kind, plan::PlanKind::kAggregate);

  Table r = Run(
      "SELECT v, count(*) AS n FROM t GROUP BY v HAVING count(*) > 1");
  ASSERT_EQ(r.num_rows(), 1);
  EXPECT_EQ(r.GetRow(0)[0], Value::Int32(20));
}

TEST_F(SqlTest, DistinctLowersToKeyOnlyAggregate) {
  plan::PlanPtr p = Compile("SELECT DISTINCT v FROM t");
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->kind, plan::PlanKind::kAggregate);
  EXPECT_TRUE(p->aggregates.empty());
  Table r = Run("SELECT DISTINCT v FROM t ORDER BY v");
  ASSERT_EQ(r.num_rows(), 3);
}

TEST_F(SqlTest, OrderByLimitNest) {
  plan::PlanPtr p = Compile("SELECT id FROM t ORDER BY id DESC LIMIT 2");
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->kind, plan::PlanKind::kLimit);
  EXPECT_EQ(p->limit, 2);
  ASSERT_EQ(p->children[0]->kind, plan::PlanKind::kSort);
  EXPECT_FALSE(p->children[0]->sort_keys[0].ascending);

  Table r = Run("SELECT id FROM t ORDER BY id DESC LIMIT 2");
  ASSERT_EQ(r.num_rows(), 2);
  EXPECT_EQ(r.GetRow(0)[0], Value::Int64(4));
  EXPECT_EQ(r.GetRow(1)[0], Value::Int64(3));
}

TEST_F(SqlTest, CteExpandsLikeAMacro) {
  Table r = Run(
      "WITH big AS (SELECT id, v FROM t WHERE v >= 20) "
      "SELECT count(*) AS n FROM big JOIN u ON big.id = u.id");
  ASSERT_EQ(r.num_rows(), 1);
  EXPECT_EQ(r.GetRow(0)[0], Value::Int64(2));  // id=3 matches u twice
}

TEST_F(SqlTest, DerivedTableWithColumnAliases) {
  Table r = Run(
      "SELECT big_v FROM (SELECT id, v FROM t) AS s (big_id, big_v) "
      "WHERE big_id = 1");
  ASSERT_EQ(r.num_rows(), 1);
  EXPECT_EQ(r.GetRow(0)[0], Value::Int32(10));
}

TEST_F(SqlTest, ScalarFunctionsResolveThroughRegistry) {
  Table r = Run("SELECT upper(name) AS un FROM t WHERE id = 1");
  ASSERT_EQ(r.num_rows(), 1);
  EXPECT_EQ(r.GetRow(0)[0], Value::String("ALPHA"));
  std::string msg = CompileError("SELECT nosuchfn(id) FROM t");
  EXPECT_NE(msg.find("unknown function 'nosuchfn'"), std::string::npos);
}

TEST_F(SqlTest, LikeLowersToCall) {
  Table r = Run("SELECT name FROM t WHERE name LIKE '%et%'");
  ASSERT_EQ(r.num_rows(), 1);
  EXPECT_EQ(r.GetRow(0)[0], Value::String("beta"));
}

TEST_F(SqlTest, QueryDepthLimitStopsRecursiveCtes) {
  std::string msg = CompileError(
      "WITH r AS (SELECT id FROM r) SELECT id FROM r");
  EXPECT_NE(msg.find("depth limit"), std::string::npos) << msg;
}

// ---------------------------------------------------------------------------
// DML statements + time travel over a delta-backed catalog entry
// ---------------------------------------------------------------------------

/// Fixture with a writable delta table `kv(id, val)` (25 rows, ids 0..24,
/// val = id * 10) next to the read-only in-memory tables of SqlTest.
class SqlDmlTest : public ::testing::Test {
 protected:
  SqlDmlTest() : driver_(1) {
    auto created = DeltaTable::Create(
        &store_, "sql/kv",
        Schema({Field("id", DataType::Int64()),
                Field("val", DataType::Int64())}));
    PHOTON_CHECK(created.ok());
    kv_ = std::move(*created);
    TableBuilder b(Schema({Field("id", DataType::Int64()),
                           Field("val", DataType::Int64())}));
    for (int64_t i = 0; i < 25; i++) {
      b.AppendRow({Value::Int64(i), Value::Int64(i * 10)});
    }
    PHOTON_CHECK(kv_->Append(b.Finish()).ok());
    PHOTON_CHECK(catalog_.RegisterDeltaTable("kv", kv_.get()).ok());
    catalog_.RegisterTable("t", &t_);
  }

  CompiledStatement Stmt(const std::string& text) {
    Result<CompiledStatement> s = CompileStatement(text, catalog_);
    EXPECT_TRUE(s.ok()) << text << "\n  -> " << s.status().message();
    PHOTON_CHECK(s.ok());
    return *std::move(s);
  }

  std::string StmtError(const std::string& text) {
    Result<CompiledStatement> s = CompileStatement(text, catalog_);
    EXPECT_FALSE(s.ok()) << text << " unexpectedly compiled";
    return s.ok() ? "" : s.status().message();
  }

  dml::DmlResult Execute(const std::string& text) {
    CompiledStatement stmt = Stmt(text);
    ExecContext ctx;
    Result<dml::DmlResult> r = [&] {
      switch (stmt.kind) {
        case StatementKind::kDelete:
          return dml::ExecuteDelete(stmt.table, stmt.predicate, &driver_,
                                    ctx);
        case StatementKind::kUpdate:
          return dml::ExecuteUpdate(stmt.table, stmt.assignments,
                                    stmt.predicate, &driver_, ctx);
        default:
          return dml::ExecuteMerge(stmt.table, stmt.merge, &driver_, ctx);
      }
    }();
    PHOTON_CHECK(r.ok());
    // Advance the registered read snapshot like a client would.
    PHOTON_CHECK(catalog_.RegisterDeltaTable("kv", kv_.get()).ok());
    return *r;
  }

  Table Query(const std::string& text) {
    Result<CompiledStatement> s = CompileStatement(text, catalog_);
    PHOTON_CHECK(s.ok());
    PHOTON_CHECK(s->kind == StatementKind::kSelect);
    Result<Table> t = driver_.RunSingleTask(s->plan);
    PHOTON_CHECK(t.ok());
    return std::move(*t);
  }

  Table t_ = MakeTable(Schema({Field("id", DataType::Int64())}),
                       {{Value::Int64(1)}});
  ObjectStore store_;
  std::unique_ptr<DeltaTable> kv_;
  Catalog catalog_;
  exec::Driver driver_;
};

TEST_F(SqlDmlTest, DeleteCompilesToTypedPredicateAndExecutes) {
  CompiledStatement stmt = Stmt("DELETE FROM kv WHERE id < 5");
  EXPECT_EQ(stmt.kind, StatementKind::kDelete);
  EXPECT_EQ(stmt.table, kv_.get());
  ASSERT_NE(stmt.predicate, nullptr);
  EXPECT_EQ(stmt.predicate->type().id(), TypeId::kBoolean);

  dml::DmlResult r = Execute("DELETE FROM kv WHERE id < 5");
  EXPECT_EQ(r.rows_affected, 5);
  Table left = Query("SELECT count(id) AS n FROM kv");
  EXPECT_EQ(left.GetRow(0)[0], Value::Int64(20));
}

TEST_F(SqlDmlTest, UpdateCastsAssignmentsToColumnTypes) {
  // 3 (an Int32 literal after SQL typing) must be cast to the Int64
  // column; the predicate references the pre-update row.
  dml::DmlResult r = Execute("UPDATE kv SET val = 3 WHERE val >= 200");
  EXPECT_EQ(r.rows_affected, 5);  // ids 20..24
  Table n = Query("SELECT count(id) AS n FROM kv WHERE val = 3");
  EXPECT_EQ(n.GetRow(0)[0], Value::Int64(5));
}

TEST_F(SqlDmlTest, MergeExtractsKeysAndBothClauses) {
  CompiledStatement stmt = Stmt(
      "MERGE INTO kv USING (SELECT id, val FROM kv WHERE id >= 20) AS s "
      "ON kv.id = s.id "
      "WHEN MATCHED THEN UPDATE SET val = s.val + 1 "
      "WHEN NOT MATCHED THEN INSERT VALUES (s.id, s.val)");
  EXPECT_EQ(stmt.kind, StatementKind::kMerge);
  ASSERT_EQ(stmt.merge.target_keys, std::vector<int>{0});
  ASSERT_EQ(stmt.merge.source_keys, std::vector<int>{0});
  ASSERT_EQ(stmt.merge.matched_exprs.size(), 2u);
  ASSERT_EQ(stmt.merge.insert_exprs.size(), 2u);

  dml::DmlResult r = Execute(
      "MERGE INTO kv USING (SELECT id + 25 AS id, val FROM kv "
      "WHERE id >= 20) AS s ON kv.id = s.id "
      "WHEN MATCHED THEN UPDATE SET val = s.val + 1 "
      "WHEN NOT MATCHED THEN INSERT VALUES (s.id, s.val)");
  EXPECT_EQ(r.rows_affected, 0);  // shifted keys match nothing
  EXPECT_EQ(r.rows_inserted, 5);
  Table n = Query("SELECT count(id) AS n FROM kv");
  EXPECT_EQ(n.GetRow(0)[0], Value::Int64(30));
}

TEST_F(SqlDmlTest, VersionAsOfPinsThePreDmlSnapshot) {
  Execute("DELETE FROM kv WHERE id < 10");
  Table now = Query("SELECT count(id) AS n FROM kv");
  EXPECT_EQ(now.GetRow(0)[0], Value::Int64(15));
  // Version 1 is the seed append, before the delete.
  Table then = Query("SELECT count(id) AS n FROM kv VERSION AS OF 1");
  EXPECT_EQ(then.GetRow(0)[0], Value::Int64(25));
}

TEST_F(SqlDmlTest, CastLiteralPredicatePrunesDeltaFiles) {
  // Three more files: kv holds ids 0..99 in four files of 25.
  for (int64_t base = 25; base < 100; base += 25) {
    TableBuilder b(kv_->Snapshot()->schema);
    for (int64_t i = base; i < base + 25; i++) {
      b.AppendRow({Value::Int64(i), Value::Int64(i * 10)});
    }
    PHOTON_CHECK(kv_->Append(b.Finish()).ok());
  }
  PHOTON_CHECK(catalog_.RegisterDeltaTable("kv", kv_.get()).ok());

  // The analyzer types 10 as int32 and casts it to the int64 column, so
  // zone maps see CAST(10 AS int64); the optimizer pushes it into the scan.
  auto run = [&](const std::string& text, int64_t* files_pruned) {
    plan::PlanPtr plan = opt::Optimize(Stmt(text).plan);
    obs::QueryProfile profile;
    Result<Table> t = driver_.Run(plan, ExecContext{}, nullptr, &profile);
    PHOTON_CHECK(t.ok());
    std::function<int64_t(const obs::ProfileNode&)> pruned =
        [&](const obs::ProfileNode& n) {
          int64_t sum = n.Sum(obs::Metric::kFilesPruned);
          for (const obs::ProfileNode& c : n.children) sum += pruned(c);
          return sum;
        };
    *files_pruned = pruned(profile.root);
    std::vector<std::vector<Value>> rows = t->ToRows();
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a[0].Compare(b[0]) < 0;
    });
    return rows;
  };
  int64_t pruned = 0;
  int64_t unprunable = 0;
  auto rows = run("SELECT id, val FROM kv WHERE id < 10", &pruned);
  EXPECT_EQ(pruned, 3);
  // `id + 0` is no column reference: nothing is pruned, same rows.
  EXPECT_EQ(rows, run("SELECT id, val FROM kv WHERE id + 0 < 10",
                      &unprunable));
  EXPECT_EQ(unprunable, 0);
  EXPECT_EQ(rows.size(), 10u);

  // DML candidate pruning reads the same zone maps.
  dml::DmlResult r = Execute("DELETE FROM kv WHERE id < 10");
  EXPECT_EQ(r.files_pruned, 3);
  EXPECT_EQ(r.rows_affected, 10);
}

TEST_F(SqlDmlTest, DmlAndTimeTravelErrorsAreLocated) {
  EXPECT_NE(StmtError("DELETE FROM t WHERE id = 1").find("read-only"),
            std::string::npos);
  EXPECT_NE(StmtError("DELETE FROM missing").find("unknown table"),
            std::string::npos);
  EXPECT_NE(StmtError("UPDATE kv SET nope = 1").find("unknown column"),
            std::string::npos);
  EXPECT_NE(StmtError("UPDATE kv SET val = 1, val = 2").find("duplicate"),
            std::string::npos);
  EXPECT_NE(StmtError("MERGE INTO kv USING t AS s ON kv.id < s.id "
                      "WHEN MATCHED THEN UPDATE SET val = 0")
                .find("conjunction"),
            std::string::npos);
  EXPECT_NE(StmtError("MERGE INTO kv USING t AS s ON kv.id = s.id")
                .find("WHEN"),
            std::string::npos);
  EXPECT_NE(StmtError("SELECT id FROM t VERSION AS OF 0")
                .find("not a delta table"),
            std::string::npos);
  EXPECT_NE(
      StmtError("SELECT id FROM kv VERSION AS OF 99").find("VERSION AS OF"),
      std::string::npos);
  // Errors carry line:column attribution like every other SQL error.
  EXPECT_NE(StmtError("DELETE FROM missing").find("line 1 column"),
            std::string::npos);
}

}  // namespace
}  // namespace sql
}  // namespace photon

#include "metadb/sql_parser.h"

#include "common/strings.h"
#include "metadb/sql_lexer.h"

namespace dpfs::metadb {
namespace {

/// Cursor over the token stream with one-token lookahead.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> Parse() {
    DPFS_ASSIGN_OR_RETURN(Statement stmt, ParseOne());
    if (Peek().IsSymbol(";")) Advance();
    if (Peek().kind != TokenKind::kEnd) {
      return Error("trailing input after statement");
    }
    return stmt;
  }

 private:
  const Token& Peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }

  Status Error(const std::string& what) const {
    return InvalidArgumentError("sql parser: " + what + " near offset " +
                                std::to_string(Peek().offset));
  }

  Status ExpectSymbol(std::string_view symbol) {
    if (!Peek().IsSymbol(symbol)) {
      return Error("expected '" + std::string(symbol) + "'");
    }
    Advance();
    return Status::Ok();
  }

  Status ExpectKeyword(std::string_view keyword) {
    if (!Peek().IsKeyword(keyword)) {
      return Error("expected keyword '" + std::string(keyword) + "'");
    }
    Advance();
    return Status::Ok();
  }

  Result<std::string> ExpectIdentifier(const std::string& what) {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error("expected " + what);
    }
    return Advance().text;
  }

  Result<Statement> ParseOne() {
    const Token& head = Peek();
    if (head.IsKeyword("CREATE")) return ParseCreateTable();
    if (head.IsKeyword("DROP")) return ParseDropTable();
    if (head.IsKeyword("INSERT")) return ParseInsert();
    if (head.IsKeyword("SELECT")) return ParseSelect();
    if (head.IsKeyword("UPDATE")) return ParseUpdate();
    if (head.IsKeyword("DELETE")) return ParseDelete();
    return Error("unknown statement");
  }

  Result<ValueType> ParseColumnType() {
    DPFS_ASSIGN_OR_RETURN(const std::string name,
                          ExpectIdentifier("column type"));
    if (EqualsIgnoreCase(name, "INT") || EqualsIgnoreCase(name, "INTEGER") ||
        EqualsIgnoreCase(name, "BIGINT")) {
      return ValueType::kInt;
    }
    if (EqualsIgnoreCase(name, "DOUBLE") || EqualsIgnoreCase(name, "REAL") ||
        EqualsIgnoreCase(name, "FLOAT")) {
      return ValueType::kDouble;
    }
    if (EqualsIgnoreCase(name, "TEXT") || EqualsIgnoreCase(name, "VARCHAR") ||
        EqualsIgnoreCase(name, "STRING")) {
      return ValueType::kText;
    }
    return Error("unknown column type '" + name + "'");
  }

  Result<Statement> ParseCreateTable() {
    Advance();  // CREATE
    DPFS_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    CreateTableStmt stmt;
    if (Peek().IsKeyword("IF")) {
      Advance();
      DPFS_RETURN_IF_ERROR(ExpectKeyword("NOT"));
      DPFS_RETURN_IF_ERROR(ExpectKeyword("EXISTS"));
      stmt.if_not_exists = true;
    }
    DPFS_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier("table name"));
    DPFS_RETURN_IF_ERROR(ExpectSymbol("("));
    while (true) {
      ColumnDef col;
      DPFS_ASSIGN_OR_RETURN(col.name, ExpectIdentifier("column name"));
      DPFS_ASSIGN_OR_RETURN(col.type, ParseColumnType());
      if (Peek().IsKeyword("PRIMARY")) {
        Advance();
        DPFS_RETURN_IF_ERROR(ExpectKeyword("KEY"));
        col.primary_key = true;
      }
      stmt.columns.push_back(std::move(col));
      if (Peek().IsSymbol(",")) {
        Advance();
        continue;
      }
      break;
    }
    DPFS_RETURN_IF_ERROR(ExpectSymbol(")"));
    return Statement(std::move(stmt));
  }

  Result<Statement> ParseDropTable() {
    Advance();  // DROP
    DPFS_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    DropTableStmt stmt;
    if (Peek().IsKeyword("IF")) {
      Advance();
      DPFS_RETURN_IF_ERROR(ExpectKeyword("EXISTS"));
      stmt.if_exists = true;
    }
    DPFS_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier("table name"));
    return Statement(std::move(stmt));
  }

  Result<Value> ParseLiteral() {
    const Token& token = Peek();
    switch (token.kind) {
      case TokenKind::kInteger: {
        const std::int64_t v = token.int_value;
        Advance();
        return Value(v);
      }
      case TokenKind::kFloat: {
        const double v = token.float_value;
        Advance();
        return Value(v);
      }
      case TokenKind::kString: {
        std::string v = token.text;
        Advance();
        return Value(std::move(v));
      }
      case TokenKind::kIdentifier:
        if (token.IsKeyword("NULL")) {
          Advance();
          return Value::Null();
        }
        [[fallthrough]];
      default:
        return Error("expected literal value");
    }
  }

  Result<Statement> ParseInsert() {
    Advance();  // INSERT
    DPFS_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    InsertStmt stmt;
    DPFS_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier("table name"));
    if (Peek().IsSymbol("(")) {
      Advance();
      while (true) {
        DPFS_ASSIGN_OR_RETURN(std::string col,
                              ExpectIdentifier("column name"));
        stmt.columns.push_back(std::move(col));
        if (Peek().IsSymbol(",")) {
          Advance();
          continue;
        }
        break;
      }
      DPFS_RETURN_IF_ERROR(ExpectSymbol(")"));
    }
    DPFS_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    while (true) {
      DPFS_RETURN_IF_ERROR(ExpectSymbol("("));
      std::vector<Value> row;
      while (true) {
        DPFS_ASSIGN_OR_RETURN(Value v, ParseLiteral());
        row.push_back(std::move(v));
        if (Peek().IsSymbol(",")) {
          Advance();
          continue;
        }
        break;
      }
      DPFS_RETURN_IF_ERROR(ExpectSymbol(")"));
      stmt.rows.push_back(std::move(row));
      if (Peek().IsSymbol(",")) {
        Advance();
        continue;
      }
      break;
    }
    return Statement(std::move(stmt));
  }

  // Expression grammar: or_expr := and_expr (OR and_expr)*
  //                      and_expr := unary (AND unary)*
  //                      unary := NOT unary | primary
  //                      primary := '(' or_expr ')'
  //                               | operand [IS [NOT] NULL | cmp operand]
  //                      operand := literal | column
  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    DPFS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (Peek().IsKeyword("OR")) {
      Advance();
      DPFS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = MakeOr(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    DPFS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (Peek().IsKeyword("AND")) {
      Advance();
      DPFS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = MakeAnd(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    if (Peek().IsKeyword("NOT")) {
      Advance();
      DPFS_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      return MakeNot(std::move(operand));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParseOperand() {
    const Token& token = Peek();
    if (token.kind == TokenKind::kInteger || token.kind == TokenKind::kFloat ||
        token.kind == TokenKind::kString || token.IsKeyword("NULL")) {
      DPFS_ASSIGN_OR_RETURN(Value v, ParseLiteral());
      return MakeLiteral(std::move(v));
    }
    if (token.kind == TokenKind::kIdentifier) {
      return MakeColumn(Advance().text);
    }
    return Error("expected column or literal");
  }

  Result<ExprPtr> ParsePrimary() {
    if (Peek().IsSymbol("(")) {
      Advance();
      DPFS_ASSIGN_OR_RETURN(ExprPtr inner, ParseOr());
      DPFS_RETURN_IF_ERROR(ExpectSymbol(")"));
      return inner;
    }
    DPFS_ASSIGN_OR_RETURN(ExprPtr lhs, ParseOperand());
    if (Peek().IsKeyword("IS")) {
      Advance();
      bool negated = false;
      if (Peek().IsKeyword("NOT")) {
        Advance();
        negated = true;
      }
      DPFS_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      return MakeIsNull(std::move(lhs), negated);
    }
    if (Peek().IsKeyword("LIKE") ||
        (Peek().IsKeyword("NOT") && Peek(1).IsKeyword("LIKE"))) {
      const bool negated = Peek().IsKeyword("NOT");
      if (negated) Advance();
      Advance();  // LIKE
      if (Peek().kind != TokenKind::kString) {
        return Error("LIKE requires a string pattern");
      }
      std::string pattern = Advance().text;
      return MakeLike(std::move(lhs), std::move(pattern), negated);
    }
    if (Peek().IsKeyword("IN") ||
        (Peek().IsKeyword("NOT") && Peek(1).IsKeyword("IN"))) {
      // Desugar `x IN (a, b, c)` to `(x = a OR x = b OR x = c)`.
      const bool negated = Peek().IsKeyword("NOT");
      if (negated) Advance();
      Advance();  // IN
      DPFS_RETURN_IF_ERROR(ExpectSymbol("("));
      ExprPtr disjunction;
      while (true) {
        DPFS_ASSIGN_OR_RETURN(Value v, ParseLiteral());
        ExprPtr equal =
            MakeCompare(CompareOp::kEq, lhs, MakeLiteral(std::move(v)));
        disjunction = disjunction == nullptr
                          ? std::move(equal)
                          : MakeOr(std::move(disjunction), std::move(equal));
        if (Peek().IsSymbol(",")) {
          Advance();
          continue;
        }
        break;
      }
      DPFS_RETURN_IF_ERROR(ExpectSymbol(")"));
      return negated ? MakeNot(std::move(disjunction))
                     : std::move(disjunction);
    }
    static constexpr std::pair<std::string_view, CompareOp> kOps[] = {
        {"=", CompareOp::kEq}, {"!=", CompareOp::kNe}, {"<=", CompareOp::kLe},
        {">=", CompareOp::kGe}, {"<", CompareOp::kLt}, {">", CompareOp::kGt},
    };
    for (const auto& [symbol, op] : kOps) {
      if (Peek().IsSymbol(symbol)) {
        Advance();
        DPFS_ASSIGN_OR_RETURN(ExprPtr rhs, ParseOperand());
        return MakeCompare(op, std::move(lhs), std::move(rhs));
      }
    }
    return Error("expected comparison operator");
  }

  Result<Statement> ParseSelect() {
    Advance();  // SELECT
    SelectStmt stmt;
    if (Peek().IsKeyword("COUNT") && Peek(1).IsSymbol("(")) {
      Advance();  // COUNT
      Advance();  // (
      DPFS_RETURN_IF_ERROR(ExpectSymbol("*"));
      DPFS_RETURN_IF_ERROR(ExpectSymbol(")"));
      stmt.count_only = true;
    } else if (Peek().IsSymbol("*")) {
      Advance();
    } else {
      while (true) {
        DPFS_ASSIGN_OR_RETURN(std::string col,
                              ExpectIdentifier("column name"));
        stmt.columns.push_back(std::move(col));
        if (Peek().IsSymbol(",")) {
          Advance();
          continue;
        }
        break;
      }
    }
    DPFS_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    DPFS_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier("table name"));
    if (Peek().IsKeyword("WHERE")) {
      Advance();
      DPFS_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    if (Peek().IsKeyword("ORDER")) {
      Advance();
      DPFS_RETURN_IF_ERROR(ExpectKeyword("BY"));
      OrderBy order;
      DPFS_ASSIGN_OR_RETURN(order.column, ExpectIdentifier("column name"));
      if (Peek().IsKeyword("DESC")) {
        Advance();
        order.descending = true;
      } else if (Peek().IsKeyword("ASC")) {
        Advance();
      }
      stmt.order_by = std::move(order);
    }
    if (Peek().IsKeyword("LIMIT")) {
      Advance();
      if (Peek().kind != TokenKind::kInteger || Peek().int_value < 0) {
        return Error("LIMIT requires a non-negative integer");
      }
      stmt.limit = static_cast<std::size_t>(Advance().int_value);
    }
    return Statement(std::move(stmt));
  }

  Result<Statement> ParseUpdate() {
    Advance();  // UPDATE
    UpdateStmt stmt;
    DPFS_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier("table name"));
    DPFS_RETURN_IF_ERROR(ExpectKeyword("SET"));
    while (true) {
      DPFS_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier("column name"));
      DPFS_RETURN_IF_ERROR(ExpectSymbol("="));
      DPFS_ASSIGN_OR_RETURN(Value v, ParseLiteral());
      stmt.assignments.emplace_back(std::move(col), std::move(v));
      if (Peek().IsSymbol(",")) {
        Advance();
        continue;
      }
      break;
    }
    if (Peek().IsKeyword("WHERE")) {
      Advance();
      DPFS_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    return Statement(std::move(stmt));
  }

  Result<Statement> ParseDelete() {
    Advance();  // DELETE
    DPFS_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    DeleteStmt stmt;
    DPFS_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier("table name"));
    if (Peek().IsKeyword("WHERE")) {
      Advance();
      DPFS_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    return Statement(std::move(stmt));
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<Statement> ParseStatement(std::string_view sql) {
  DPFS_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace dpfs::metadb

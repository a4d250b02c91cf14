//===- Ast.h - Nova abstract syntax -----------------------------*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST for the Nova language: layouts (with overlays, concatenation and
/// gaps), functions, try/handle exceptions, records/tuples, pack/unpack,
/// and the memory/hardware intrinsics of the IXP1200.
///
/// Nodes are owned by an AstArena; references between nodes are raw
/// pointers, which are stable for the arena's lifetime.
///
//===----------------------------------------------------------------------===//

#ifndef NOVA_AST_H
#define NOVA_AST_H

#include "support/MemImage.h" // MemSpace
#include "support/SourceManager.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace nova {

//===----------------------------------------------------------------------===//
// Layout expressions
//===----------------------------------------------------------------------===//

struct LayoutExpr;

/// One named entry of a sequential layout group. Exactly one of Width and
/// Sub is meaningful: `name : 16` vs `name : other_layout_expr`.
struct LayoutFieldAst {
  SourceLoc Loc;
  std::string Name;
  unsigned Width = 0;            ///< bit width when Sub == nullptr
  const LayoutExpr *Sub = nullptr;
};

enum class LayoutExprKind : uint8_t {
  Name,    ///< reference to a named layout
  Seq,     ///< `{ f1 : ..., f2 : ... }`
  Overlay, ///< `overlay { a : L1 | b : L2 }`
  Concat,  ///< `L1 ## L2`
  Gap,     ///< `{n}` anonymous gap of n bits
};

/// A layout expression; see paper Section 3.2.
struct LayoutExpr {
  LayoutExprKind Kind;
  SourceLoc Loc;
  std::string Name;                      ///< Name
  std::vector<LayoutFieldAst> Fields;    ///< Seq and Overlay alternatives
  const LayoutExpr *Lhs = nullptr;       ///< Concat
  const LayoutExpr *Rhs = nullptr;       ///< Concat
  unsigned GapBits = 0;                  ///< Gap
};

//===----------------------------------------------------------------------===//
// Type expressions (surface syntax)
//===----------------------------------------------------------------------===//

struct TypeExpr;

/// A named field of a record type expression.
struct TypeFieldAst {
  std::string Name;
  const TypeExpr *Type = nullptr;
};

enum class TypeExprKind : uint8_t {
  Word,
  Bool,
  WordArray, ///< word[n]
  Tuple,
  Record,
  Packed,   ///< packed(layout-expr)
  Unpacked, ///< unpacked(layout-expr)
  Exn,      ///< exn(T1, ...) or exn[f : T, ...]
};

struct TypeExpr {
  TypeExprKind Kind;
  SourceLoc Loc;
  unsigned ArrayLen = 0;                    ///< WordArray
  std::vector<const TypeExpr *> Elems;      ///< Tuple, Exn tuple payload
  std::vector<TypeFieldAst> Fields;         ///< Record, Exn record payload
  const LayoutExpr *Layout = nullptr;       ///< Packed / Unpacked
  bool ExnRecordPayload = false;            ///< Exn: payload spelled [..]
};

//===----------------------------------------------------------------------===//
// Expressions and statements
//===----------------------------------------------------------------------===//

struct Expr;
struct Stmt;

enum class UnaryOp : uint8_t { Not, BitNot, Neg };
enum class BinaryOp : uint8_t {
  Add, Sub, And, Or, Xor, Shl, Shr,
  Eq, Ne, Lt, Gt, Le, Ge,
  LogAnd, LogOr,
};

/// A call/record-literal/raise argument, optionally labeled (`x = e`).
struct Arg {
  std::string Name; ///< empty for positional arguments
  const Expr *Value = nullptr;
};

/// One `handle X [params] { ... }` clause.
struct Handler {
  SourceLoc Loc;
  std::string ExnName;
  /// Payload parameter names with required type annotations.
  std::vector<std::pair<std::string, const TypeExpr *>> Params;
  bool RecordPayload = false;
  const Expr *Body = nullptr; ///< always a Block
};

enum class ExprKind : uint8_t {
  IntLit,
  BoolLit,
  VarRef,
  Unary,
  Binary,
  Call,      ///< user function call (positional or named args)
  RecordLit,
  TupleLit,
  Field,     ///< e.name or e.<index>
  If,        ///< if (c) e1 else e2; else may be null in statement position
  Block,
  Pack,      ///< pack[layout](record)
  Unpack,    ///< unpack[layout](packed)
  MemRead,   ///< sram(addr) / sdram(addr) / scratch(addr)
  Hash,      ///< hash(src)
  BitTestSet,///< sram_bit_test_set(addr, src)
  Raise,     ///< raise X(args) — type Never
  Try,       ///< try { ... } handle ...
};

struct Expr {
  ExprKind Kind;
  SourceLoc Loc;

  uint64_t IntValue = 0;              ///< IntLit
  bool BoolValue = false;             ///< BoolLit
  std::string Name;                   ///< VarRef, Call, Raise, Field name
  UnaryOp UOp = UnaryOp::Not;         ///< Unary
  BinaryOp BOp = BinaryOp::Add;       ///< Binary
  const Expr *Lhs = nullptr;          ///< Unary/Binary/Field/Pack/Unpack arg
  const Expr *Rhs = nullptr;          ///< Binary
  std::vector<Arg> Args;              ///< Call/RecordLit/Raise
  std::vector<const Expr *> Elems;    ///< TupleLit
  int FieldIndex = -1;                ///< Field by tuple index (e.0)
  const Expr *Cond = nullptr;         ///< If
  const Expr *Then = nullptr;         ///< If
  const Expr *Else = nullptr;         ///< If (may be null)
  std::vector<const Stmt *> Stmts;    ///< Block statements
  const Expr *Tail = nullptr;         ///< Block trailing expression (or null)
  const LayoutExpr *Layout = nullptr; ///< Pack/Unpack
  MemSpace Space = MemSpace::Sram;    ///< MemRead/BitTestSet
  std::vector<Handler> Handlers;      ///< Try
  const Expr *Body = nullptr;         ///< Try body
};

/// Destructuring pattern of a `let`.
struct Pattern {
  SourceLoc Loc;
  /// One name: plain binding. Several: tuple destructuring. The name "_"
  /// discards the component.
  std::vector<std::string> Names;
  bool IsTuple = false;
};

enum class StmtKind : uint8_t {
  Let,    ///< let pat (: T)? = init;
  Assign, ///< x = e;
  ExprStmt,
  Store,  ///< sram(addr) <- e;
  While,  ///< while (c) { ... }
};

struct Stmt {
  StmtKind Kind;
  SourceLoc Loc;
  Pattern Pat;                       ///< Let
  const TypeExpr *Annot = nullptr;   ///< Let annotation
  std::string Name;                  ///< Assign target
  const Expr *Value = nullptr;       ///< Let init / Assign / ExprStmt / Store
  const Expr *Addr = nullptr;        ///< Store address
  MemSpace Space = MemSpace::Sram;   ///< Store
  const Expr *Cond = nullptr;        ///< While
  const Expr *Body = nullptr;        ///< While body (Block)
};

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

struct LayoutDecl {
  SourceLoc Loc;
  std::string Name;
  const LayoutExpr *Value = nullptr;
};

struct FunParam {
  SourceLoc Loc;
  std::string Name;
  const TypeExpr *Type = nullptr; ///< required
};

struct FunDecl {
  SourceLoc Loc;
  std::string Name;
  std::vector<FunParam> Params;
  bool RecordParams = false;           ///< declared with [..] not (..)
  const TypeExpr *Result = nullptr;    ///< optional annotation
  const Expr *Body = nullptr;          ///< Block
};

/// Owns every AST node of one compilation.
class AstArena {
public:
  Expr *newExpr(ExprKind Kind, SourceLoc Loc) {
    Exprs.push_back(std::make_unique<Expr>());
    Exprs.back()->Kind = Kind;
    Exprs.back()->Loc = Loc;
    return Exprs.back().get();
  }
  Stmt *newStmt(StmtKind Kind, SourceLoc Loc) {
    Stmts.push_back(std::make_unique<Stmt>());
    Stmts.back()->Kind = Kind;
    Stmts.back()->Loc = Loc;
    return Stmts.back().get();
  }
  LayoutExpr *newLayout(LayoutExprKind Kind, SourceLoc Loc) {
    Layouts.push_back(std::make_unique<LayoutExpr>());
    Layouts.back()->Kind = Kind;
    Layouts.back()->Loc = Loc;
    return Layouts.back().get();
  }
  TypeExpr *newType(TypeExprKind Kind, SourceLoc Loc) {
    Types.push_back(std::make_unique<TypeExpr>());
    Types.back()->Kind = Kind;
    Types.back()->Loc = Loc;
    return Types.back().get();
  }

private:
  std::vector<std::unique_ptr<Expr>> Exprs;
  std::vector<std::unique_ptr<Stmt>> Stmts;
  std::vector<std::unique_ptr<LayoutExpr>> Layouts;
  std::vector<std::unique_ptr<TypeExpr>> Types;
};

/// A parsed compilation unit.
struct Program {
  std::vector<LayoutDecl> LayoutDecls;
  std::vector<FunDecl> FunDecls;

  const FunDecl *findFun(std::string_view Name) const {
    for (const FunDecl &F : FunDecls)
      if (F.Name == Name)
        return &F;
    return nullptr;
  }
};

} // namespace nova

#endif // NOVA_AST_H

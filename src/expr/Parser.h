//===- expr/Parser.h - Query-language parser and elaborator -----*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser and elaborator for the ANOSY query DSL. The
/// elaborator inlines helper `def` calls (call-by-name substitution of the
/// argument expressions), type-checks int vs bool sorts, resolves field
/// references against the declared secret schema, and — following §5.1 —
/// rejects recursive definitions and calls to unknown functions.
///
/// Grammar (see expr/Lexer.h for the token set):
/// \code
///   module    := schemaDecl (defDecl | queryDecl)*
///   schemaDecl:= 'secret' IDENT '{' field (',' field)* '}'
///   field     := IDENT ':' 'int' '[' intLit ',' intLit ']'
///   defDecl   := 'def' IDENT '(' params? ')' ':' ('int'|'bool') '=' expr
///   queryDecl := 'query' IDENT '=' expr
///   expr      := orExpr ('==>' expr)?                 -- right assoc
///   orExpr    := andExpr ('||' andExpr)*
///   andExpr   := notExpr ('&&' notExpr)*
///   notExpr   := '!' notExpr | cmpExpr
///   cmpExpr   := addExpr (('=='|'!='|'<'|'<='|'>'|'>=') addExpr)?
///   addExpr   := mulExpr (('+'|'-') mulExpr)*
///   mulExpr   := unary ('*' unary)*
///   unary     := '-' unary | primary
///   primary   := intLit | 'true' | 'false' | IDENT ('(' args ')')?
///             | 'abs' '(' expr ')' | 'min' '(' expr ',' expr ')'
///             | 'max' '(' expr ',' expr ')'
///             | 'if' expr 'then' expr 'else' expr | '(' expr ')'
/// \endcode
///
/// Module source may come from an untrusted tenant (anosyd's register
/// verb), so every query and classifier body is held to two fixed limits,
/// checked on each node as the parser builds it: MaxQueryDepth bounds both
/// the source nesting and the depth of the elaborated expression, and
/// MaxQuerySize bounds its tree size, a shared subterm counted at every
/// use. Def inlining cannot get round either. Both sit far above any
/// query a service writes and far below what exhausts the stack of the
/// recursive stages downstream (simplify, tape compile, evaluation).
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_EXPR_PARSER_H
#define ANOSY_EXPR_PARSER_H

#include "expr/Module.h"
#include "support/Result.h"

#include <cstddef>
#include <string>

namespace anosy {

/// Deepest source nesting, and deepest elaborated expression, accepted.
inline constexpr size_t MaxQueryDepth = 256;

/// Largest elaborated expression accepted, in nodes (Expr::treeSize).
inline constexpr size_t MaxQuerySize = size_t(1) << 16;

/// Parses and elaborates a full module source.
Result<Module> parseModule(const std::string &Source);

/// Parses a single boolean query expression against an existing schema
/// (handy for tests and for programmatic query construction).
Result<ExprRef> parseQueryExpr(const Schema &S, const std::string &Source);

/// Parses a standalone `secret Name { ... }` declaration (used by the
/// knowledge-base loader in core/ArtifactIO).
Result<Schema> parseSchema(const std::string &Source);

} // namespace anosy

#endif // ANOSY_EXPR_PARSER_H

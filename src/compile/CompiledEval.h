//===- compile/CompiledEval.h - Compiled-eval mode & tape cache -*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-wide switch for compiled query evaluation and the tape
/// cache behind it. Three modes:
///
///  * Off  — every box probe tree-walks the AST (the differential
///           oracle's path).
///  * On   — every query predicate compiles to a tape.
///  * Auto — compile when the query is large enough that the tape's
///           per-probe savings beat its one-shot compile cost; trivial
///           queries (a lone comparison) stay on the tree walk.
///
/// The default is Auto. The `ANOSY_COMPILED_EVAL` environment variable
/// seeds the initial mode; `--compiled-eval=` on the CLIs (and tests)
/// override it via setCompiledEvalMode.
///
/// The cache keys tapes by structural hash + structural equality, so a
/// query registered once and re-elaborated many times (sessions, refine
/// chains, the corpus soak) compiles exactly once per distinct shape:
/// racing compiles of the same shape re-probe under the insert lock and
/// converge on a single tape. The cache is bounded; overflow runs a
/// second-chance sweep (probe hits mark entries referenced; sweeps evict
/// the unreferenced and demote the rest), so hot shapes survive a stream
/// of cold one-shot shapes instead of being recompiled on every wrap.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_COMPILE_COMPILEDEVAL_H
#define ANOSY_COMPILE_COMPILEDEVAL_H

#include "compile/Tape.h"
#include "expr/Expr.h"

#include <string>

namespace anosy {

enum class CompiledEvalMode { Off, On, Auto };

/// The current process-wide mode (atomic; safe from any thread).
CompiledEvalMode compiledEvalMode();
void setCompiledEvalMode(CompiledEvalMode M);

/// Parses "off"/"on"/"auto". Returns false (and leaves \p M alone) on
/// anything else.
bool parseCompiledEvalMode(const std::string &Text, CompiledEvalMode &M);

const char *compiledEvalModeName(CompiledEvalMode M);

/// Whether the current mode compiles \p E: On always, Off never, Auto
/// when the tree is big enough to amortize the compile.
bool shouldCompileQuery(const Expr &E);

/// The tape for \p E under the current mode: a cached or freshly
/// compiled tape, or nullptr when the mode says tree-walk (or the
/// expression exceeds the tape's register file). Thread-safe.
TapeRef getOrCompileTape(const ExprRef &E);

/// Test-only introspection of the process-wide tape cache: live entry
/// count, full reset, and a side-effect-free membership probe (does not
/// touch the second-chance referenced bits).
size_t tapeCacheSizeForTest();
void tapeCacheClearForTest();
bool tapeCacheContainsForTest(const ExprRef &E);

} // namespace anosy

#endif // ANOSY_COMPILE_COMPILEDEVAL_H

//===- tests/expr/ParserTest.cpp - Parser/elaborator unit tests ------------===//

#include "expr/Parser.h"

#include "expr/Eval.h"

#include <gtest/gtest.h>

using namespace anosy;

namespace {

Schema userLoc() {
  return Schema("UserLoc", {{"x", 0, 400}, {"y", 0, 400}});
}

ExprRef parseOk(const Schema &S, const std::string &Src) {
  auto R = parseQueryExpr(S, Src);
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.error().str());
  return R.ok() ? R.value() : nullptr;
}

} // namespace

TEST(Parser, SimpleComparison) {
  ExprRef E = parseOk(userLoc(), "x <= 100");
  ASSERT_TRUE(E);
  EXPECT_TRUE(evalBool(*E, {100, 0}));
  EXPECT_FALSE(evalBool(*E, {101, 0}));
}

TEST(Parser, PrecedenceArithmeticOverComparison) {
  ExprRef E = parseOk(userLoc(), "x + 2 * y <= 10");
  ASSERT_TRUE(E);
  EXPECT_TRUE(evalBool(*E, {4, 3}));   // 4 + 6 <= 10
  EXPECT_FALSE(evalBool(*E, {5, 3}));  // 11
}

TEST(Parser, PrecedenceAndBindsTighterThanOr) {
  // a || b && c must parse as a || (b && c).
  ExprRef E = parseOk(userLoc(), "x == 1 || x == 2 && y == 3");
  ASSERT_TRUE(E);
  EXPECT_TRUE(evalBool(*E, {1, 0}));
  EXPECT_TRUE(evalBool(*E, {2, 3}));
  EXPECT_FALSE(evalBool(*E, {2, 4}));
}

TEST(Parser, ImpliesIsRightAssociative) {
  // a ==> b ==> c parses as a ==> (b ==> c).
  ExprRef E = parseOk(userLoc(), "x == 1 ==> y == 1 ==> x == y");
  ASSERT_TRUE(E);
  EXPECT_TRUE(evalBool(*E, {0, 7}));  // antecedent false
  EXPECT_TRUE(evalBool(*E, {1, 1}));
  EXPECT_TRUE(evalBool(*E, {1, 2})); // inner antecedent false
}

TEST(Parser, UnaryMinusAndParens) {
  ExprRef E = parseOk(userLoc(), "-(x - y) == y - x");
  ASSERT_TRUE(E);
  EXPECT_TRUE(evalBool(*E, {7, 3}));
}

TEST(Parser, Builtins) {
  ExprRef E = parseOk(userLoc(), "min(x, y) >= 2 && max(x, y) <= 8 && abs(x - y) <= 3");
  ASSERT_TRUE(E);
  EXPECT_TRUE(evalBool(*E, {4, 6}));
  EXPECT_FALSE(evalBool(*E, {1, 6}));
}

TEST(Parser, IfThenElseInteger) {
  ExprRef E = parseOk(userLoc(), "(if x < 200 then 200 - x else x - 200) <= 10");
  ASSERT_TRUE(E);
  EXPECT_TRUE(evalBool(*E, {195, 0}));
  EXPECT_TRUE(evalBool(*E, {210, 0}));
  EXPECT_FALSE(evalBool(*E, {150, 0}));
}

TEST(Parser, IfThenElseBooleanDesugars) {
  ExprRef E = parseOk(userLoc(), "if x < 10 then y < 5 else y > 5");
  ASSERT_TRUE(E);
  EXPECT_TRUE(evalBool(*E, {1, 2}));
  EXPECT_FALSE(evalBool(*E, {1, 7}));
  EXPECT_TRUE(evalBool(*E, {20, 7}));
}

TEST(Parser, RejectsSortErrors) {
  auto R = parseQueryExpr(userLoc(), "x + (y <= 2) <= 3");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().code(), ErrorCode::UnsupportedQuery);
  EXPECT_FALSE(parseQueryExpr(userLoc(), "x").ok()); // int, not bool
  EXPECT_FALSE(parseQueryExpr(userLoc(), "!(x + 1)").ok());
}

TEST(Parser, RejectsUnknownIdentifier) {
  auto R = parseQueryExpr(userLoc(), "z <= 3");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().message().find("unknown identifier 'z'"),
            std::string::npos);
}

TEST(Parser, RejectsTrailingInput) {
  EXPECT_FALSE(parseQueryExpr(userLoc(), "x <= 3 x").ok());
}

TEST(ParserModule, FullModuleWithDefs) {
  auto M = parseModule(R"(
    secret UserLoc { x: int[0, 400], y: int[0, 400] }
    def manhattan(ox: int, oy: int): int = abs(x - ox) + abs(y - oy)
    def nearby(ox: int, oy: int): bool = manhattan(ox, oy) <= 100
    query nearby200 = nearby(200, 200)
    query nearby400 = nearby(400, 200)
  )");
  ASSERT_TRUE(M.ok()) << M.error().str();
  EXPECT_EQ(M->schema().name(), "UserLoc");
  EXPECT_EQ(M->queries().size(), 2u);
  const QueryDef *Q = M->findQuery("nearby200");
  ASSERT_NE(Q, nullptr);
  EXPECT_TRUE(evalBool(*Q->Body, {250, 250}));
  EXPECT_FALSE(evalBool(*Q->Body, {0, 0}));
  EXPECT_EQ(M->findQuery("nope"), nullptr);
}

TEST(ParserModule, NestedDefCallsInlineTransitively) {
  auto M = parseModule(R"(
    secret S { a: int[0, 100] }
    def twice(v: int): int = 2 * v
    def quad(v: int): int = twice(twice(v))
    query big = quad(a) >= 40
  )");
  ASSERT_TRUE(M.ok()) << M.error().str();
  EXPECT_TRUE(evalBool(*M->queries()[0].Body, {10}));
  EXPECT_FALSE(evalBool(*M->queries()[0].Body, {9}));
}

TEST(ParserModule, RejectsRecursionPerPaper) {
  // §5.1: "recursive definitions of queries are rejected by ANOSY".
  auto M = parseModule(R"(
    secret S { a: int[0, 100] }
    def loop(v: int): int = loop(v)
    query q = loop(a) == 0
  )");
  ASSERT_FALSE(M.ok());
  EXPECT_EQ(M.error().code(), ErrorCode::UnsupportedQuery);
  EXPECT_NE(M.error().message().find("recursive"), std::string::npos);
}

TEST(ParserModule, RejectsMutualRecursion) {
  // Calls may only reference *earlier* defs, which already rules out
  // mutual recursion at the use site.
  auto M = parseModule(R"(
    secret S { a: int[0, 100] }
    def even(v: int): bool = odd(v - 1)
    def odd(v: int): bool = even(v - 1)
    query q = even(a)
  )");
  ASSERT_FALSE(M.ok());
}

TEST(ParserModule, RejectsCallArityMismatch) {
  auto M = parseModule(R"(
    secret S { a: int[0, 100] }
    def f(v: int): int = v + 1
    query q = f(a, a) == 0
  )");
  ASSERT_FALSE(M.ok());
  EXPECT_NE(M.error().message().find("arguments"), std::string::npos);
}

TEST(ParserModule, RejectsCallSortMismatch) {
  auto M = parseModule(R"(
    secret S { a: int[0, 100] }
    def f(v: bool): bool = v
    query q = f(a)
  )");
  ASSERT_FALSE(M.ok());
}

TEST(ParserModule, RejectsDuplicateNames) {
  EXPECT_FALSE(parseModule(R"(
    secret S { a: int[0, 10], a: int[0, 10] }
    query q = a <= 3
  )").ok());
  EXPECT_FALSE(parseModule(R"(
    secret S { a: int[0, 10] }
    query q = a <= 3
    query q = a <= 4
  )").ok());
}

TEST(ParserModule, RejectsEmptyFieldBounds) {
  auto M = parseModule(R"(
    secret S { a: int[5, 2] }
    query q = a <= 3
  )");
  ASSERT_FALSE(M.ok());
  EXPECT_NE(M.error().message().find("empty bounds"), std::string::npos);
}

TEST(ParserModule, NegativeBoundsParse) {
  auto M = parseModule(R"(
    secret S { lon: int[-100, -50] }
    query west = lon <= -75
  )");
  ASSERT_TRUE(M.ok()) << M.error().str();
  EXPECT_EQ(M->schema().field(0).Lo, -100);
  EXPECT_EQ(M->schema().field(0).Hi, -50);
}

TEST(ParserModule, RequiresAtLeastOneQuery) {
  EXPECT_FALSE(parseModule("secret S { a: int[0, 1] }").ok());
}

TEST(ParserModule, BoolParametersWork) {
  auto M = parseModule(R"(
    secret S { a: int[0, 100] }
    def guard(c: bool, v: int): bool = c && v >= 10
    query q = guard(a <= 50, a)
  )");
  ASSERT_TRUE(M.ok()) << M.error().str();
  EXPECT_TRUE(evalBool(*M->queries()[0].Body, {30}));
  EXPECT_FALSE(evalBool(*M->queries()[0].Body, {60}));
  EXPECT_FALSE(evalBool(*M->queries()[0].Body, {5}));
}

// === Limits on hostile source ============================================

namespace {

/// `d0(x) = <D0Body>` and `di(x) = d(i-1)(d(i-1)(x))` up to d(Levels-1),
/// queried as `d(Levels-1)(a) > 0`: a few hundred bytes of source whose
/// elaborated tree doubles with every level.
std::string chainedDefs(const std::string &D0Body, unsigned Levels) {
  std::string Src = "secret S { a: int[0, 100], b: int[0, 100] }\n";
  Src += "def d0(x: int): int = " + D0Body + "\n";
  for (unsigned I = 1; I != Levels; ++I) {
    std::string Prev = "d" + std::to_string(I - 1);
    Src += "def d" + std::to_string(I) + "(x: int): int = " + Prev + "(" +
           Prev + "(x))\n";
  }
  return Src + "query q = d" + std::to_string(Levels - 1) + "(a) > 0\n";
}

void expectRejected(const std::string &Src, const char *Limit) {
  auto M = parseModule(Src);
  ASSERT_FALSE(M.ok());
  EXPECT_TRUE(M.error().code() == ErrorCode::ParseError ||
              M.error().code() == ErrorCode::UnsupportedQuery)
      << M.error().str();
  EXPECT_NE(M.error().message().find(Limit), std::string::npos)
      << M.error().str();
}

const char *HostileSchema = "secret S { x: int[0, 10] }\nquery q = ";

} // namespace

TEST(ParserLimits, DeepParenthesesAreRejected) {
  // ~8 KB: 4000 nested parentheses around one comparison.
  expectRejected(std::string(HostileSchema) + std::string(4000, '(') + "x > 0" +
                     std::string(4000, ')'),
                 "levels deep");
}

TEST(ParserLimits, LongNegationRunIsRejected) {
  expectRejected(std::string(HostileSchema) + std::string(50000, '!') + "x > 0",
                 "levels deep");
}

TEST(ParserLimits, ChainedDefsTooDeepAreRejected) {
  // Elaborated depth 2^15 from shallow source nesting.
  std::string Src = chainedDefs("abs(x - b)", 15);
  EXPECT_LT(Src.size(), 700u);
  expectRejected(Src, "levels deep after def inlining");
}

TEST(ParserLimits, SharedSubtermBlowupIsRejected) {
  // Shallow (depth ~70) but 2^32-fold tree growth through shared
  // subterms: the size cap, not the depth cap, must stop it.
  expectRejected(chainedDefs("min(x, b) + min(b, x)", 6),
                 "nodes after def inlining");
}

TEST(ParserLimits, QueriesWithinTheLimitsParse) {
  auto Deep = parseModule(std::string(HostileSchema) +
                          std::string(MaxQueryDepth - 2, '(') + "x > 0" +
                          std::string(MaxQueryDepth - 2, ')'));
  EXPECT_TRUE(Deep.ok()) << Deep.error().str();
  // Three levels of doubling stay far below both limits.
  auto Chain = parseModule(chainedDefs("min(x, b) + min(b, x)", 3));
  ASSERT_TRUE(Chain.ok()) << Chain.error().str();
  EXPECT_LE(Chain->queries()[0].Body->treeSize(), MaxQuerySize);
}

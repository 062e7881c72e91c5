//===- tests/SyntaxTests.cpp - Reader, parser, printer, hygiene -*- C++ -*-===//
//
// Part of cpsflow. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "syntax/Analysis.h"
#include "syntax/Ast.h"
#include "syntax/Builder.h"
#include "syntax/Parser.h"
#include "syntax/Printer.h"
#include "syntax/Rename.h"
#include "syntax/Sexpr.h"
#include "gen/Generator.h"

#include <gtest/gtest.h>

using namespace cpsflow;
using namespace cpsflow::syntax;

namespace {

//===----------------------------------------------------------------------===//
// S-expressions
//===----------------------------------------------------------------------===//

TEST(Sexpr, ParsesAtomsAndLists) {
  Result<Sexpr> R = parseSexpr("(let (x 1) (add1 x)) ; comment");
  ASSERT_TRUE(R.hasValue());
  EXPECT_TRUE(R->isList());
  EXPECT_EQ(R->size(), 3u);
  EXPECT_TRUE((*R)[0].isSymbol("let"));
  EXPECT_TRUE((*R)[1][1].isNumber());
  EXPECT_EQ((*R)[1][1].Number, 1);
}

TEST(Sexpr, NegativeNumerals) {
  Result<Sexpr> R = parseSexpr("-42");
  ASSERT_TRUE(R.hasValue());
  EXPECT_TRUE(R->isNumber());
  EXPECT_EQ(R->Number, -42);
}

TEST(Sexpr, DashAloneIsASymbol) {
  Result<Sexpr> R = parseSexpr("-");
  ASSERT_TRUE(R.hasValue());
  EXPECT_TRUE(R->isSymbol("-"));
}

TEST(Sexpr, ReportsUnterminatedList) {
  Result<Sexpr> R = parseSexpr("(a (b c)");
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().Message.find("unterminated"), std::string::npos);
}

TEST(Sexpr, ReportsUnmatchedClose) {
  Result<Sexpr> R = parseSexpr(")");
  ASSERT_FALSE(R.hasValue());
}

TEST(Sexpr, ReportsTrailingInput) {
  Result<Sexpr> R = parseSexpr("(a) (b)");
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().Message.find("trailing"), std::string::npos);
}

TEST(Sexpr, ListVariantParsesMany) {
  Result<std::vector<Sexpr>> R = parseSexprList("(a) 1 b ; end\n");
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->size(), 3u);
}

TEST(Sexpr, RoundTripsThroughStr) {
  const char *Text = "(let (x 1) (if0 x (lambda (y) y) 2))";
  Result<Sexpr> R = parseSexpr(Text);
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->str(), Text);
}

TEST(Sexpr, TracksLocations) {
  Result<Sexpr> R = parseSexpr("(a\n  b)");
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ((*R)[1].Loc.Line, 2u);
  EXPECT_EQ((*R)[1].Loc.Column, 3u);
}

//===----------------------------------------------------------------------===//
// Language-A parser and printer
//===----------------------------------------------------------------------===//

TEST(Parser, ParsesEveryConstruct) {
  Context Ctx;
  const char *Text =
      "(let (f (lambda (x) (if0 x 0 (add1 x)))) (let (y (f 3)) y))";
  Result<const Term *> R = parseTerm(Ctx, Text);
  ASSERT_TRUE(R.hasValue()) << R.error().str();
  EXPECT_EQ(print(Ctx, *R), Text);
}

TEST(Parser, ParsesLoop) {
  Context Ctx;
  Result<const Term *> R = parseTerm(Ctx, "(let (x (loop)) x)");
  ASSERT_TRUE(R.hasValue());
  const auto *Let = dyn_cast<LetTerm>(*R);
  ASSERT_NE(Let, nullptr);
  EXPECT_TRUE(isa<LoopTerm>(Let->bound()));
}

TEST(Parser, ParsesGeneralApplications) {
  Context Ctx;
  Result<const Term *> R = parseTerm(Ctx, "((lambda (x) x) (add1 1))");
  ASSERT_TRUE(R.hasValue());
  EXPECT_TRUE(isa<AppTerm>(*R));
}

TEST(Parser, LambdaUnicodeSpelling) {
  Context Ctx;
  Result<const Term *> R = parseTerm(Ctx, "(λ (x) x)");
  ASSERT_TRUE(R.hasValue());
}

TEST(Parser, RejectsReservedWordAsVariable) {
  Context Ctx;
  EXPECT_FALSE(parseTerm(Ctx, "(let (let 1) 2)").hasValue());
  EXPECT_FALSE(parseTerm(Ctx, "(lambda (if0) 3)").hasValue());
  EXPECT_FALSE(parseTerm(Ctx, "loop").hasValue());
}

TEST(Parser, RejectsMalformedForms) {
  Context Ctx;
  EXPECT_FALSE(parseTerm(Ctx, "()").hasValue());
  EXPECT_FALSE(parseTerm(Ctx, "(let x 1)").hasValue());
  EXPECT_FALSE(parseTerm(Ctx, "(if0 1 2)").hasValue());
  EXPECT_FALSE(parseTerm(Ctx, "(lambda (x y) x)").hasValue());
  EXPECT_FALSE(parseTerm(Ctx, "(f g h)").hasValue());
  EXPECT_FALSE(parseTerm(Ctx, "(loop 1)").hasValue());
}

// Builds `(f (f (f ... x)))` nested \p Levels deep — structurally valid
// at every level, so the only thing that can reject it is a depth guard.
static std::string deeplyNested(size_t Levels) {
  std::string P;
  P.reserve(Levels * 4 + 1);
  for (size_t I = 0; I < Levels; ++I)
    P += "(f ";
  P += "x";
  P.append(Levels, ')');
  return P;
}

// Adversarial nesting must come back as a structured parse error, never
// a native stack overflow. Two regimes: past the s-expression reader's
// 4000-element cap (the 100k case), and between the term parser's
// MaxTermDepth and the reader cap, where the new term-level guard is the
// one that fires.
TEST(Parser, DeeplyNestedProgramsAreParseErrors) {
  {
    Context Ctx;
    Result<const Term *> R = parseTerm(Ctx, deeplyNested(100000));
    ASSERT_FALSE(R.hasValue());
    EXPECT_NE(R.error().str().find("depth"), std::string::npos)
        << R.error().str();
  }
  {
    Context Ctx;
    Result<const Term *> R = parseTerm(Ctx, deeplyNested(MaxTermDepth + 500));
    ASSERT_FALSE(R.hasValue());
    EXPECT_NE(R.error().str().find("supported depth"), std::string::npos)
        << R.error().str();
  }
  // Just under the term cap parses (the guard is not over-eager).
  {
    Context Ctx;
    EXPECT_TRUE(parseTerm(Ctx, deeplyNested(MaxTermDepth - 10)).hasValue());
  }
}

TEST(Printer, RoundTripIsStructurallyEqual) {
  Context Ctx;
  const char *Text =
      "(let (f (lambda (x) (if0 x 0 (add1 x)))) ((f 1) (sub1 2)))";
  Result<const Term *> R1 = parseTerm(Ctx, Text);
  ASSERT_TRUE(R1.hasValue());
  Result<const Term *> R2 = parseTerm(Ctx, print(Ctx, *R1));
  ASSERT_TRUE(R2.hasValue());
  EXPECT_TRUE(structurallyEqual(*R1, *R2));
}

TEST(Printer, IndentedFormReparses) {
  Context Ctx;
  Result<const Term *> R = parseTerm(
      Ctx, "(let (f (lambda (x) (if0 x 0 1))) (let (y (f 3)) y))");
  ASSERT_TRUE(R.hasValue());
  std::string Pretty = printIndented(Ctx, *R);
  Result<const Term *> R2 = parseTerm(Ctx, Pretty);
  ASSERT_TRUE(R2.hasValue()) << Pretty;
  EXPECT_TRUE(structurallyEqual(*R, *R2));
}

//===----------------------------------------------------------------------===//
// Syntactic analyses
//===----------------------------------------------------------------------===//

TEST(FreeVars, ComputesCorrectSets) {
  Context Ctx;
  Result<const Term *> R =
      parseTerm(Ctx, "(let (x (f z)) (lambda (y) (x (y w))))");
  ASSERT_TRUE(R.hasValue());
  std::set<Symbol> Free = freeVars(*R);
  EXPECT_EQ(Free.size(), 3u);
  EXPECT_TRUE(Free.count(Ctx.intern("f")));
  EXPECT_TRUE(Free.count(Ctx.intern("z")));
  EXPECT_TRUE(Free.count(Ctx.intern("w")));
  EXPECT_FALSE(Free.count(Ctx.intern("x")));
  EXPECT_FALSE(Free.count(Ctx.intern("y")));
}

TEST(FreeVars, ShadowingRespected) {
  Context Ctx;
  Result<const Term *> R = parseTerm(Ctx, "(lambda (x) (let (x x) x))");
  ASSERT_TRUE(R.hasValue());
  EXPECT_TRUE(freeVars(*R).empty());
}

TEST(BoundVars, CollectsLetAndLambda) {
  Context Ctx;
  Result<const Term *> R =
      parseTerm(Ctx, "(let (a 1) (lambda (b) (if0 b (let (c 2) c) a)))");
  ASSERT_TRUE(R.hasValue());
  std::set<Symbol> Bound = boundVars(*R);
  EXPECT_EQ(Bound.size(), 3u);
}

TEST(UniqueBinders, DetectsDuplicates) {
  Context Ctx;
  Result<const Term *> Ok = parseTerm(Ctx, "(let (a 1) (lambda (b) b))");
  ASSERT_TRUE(Ok.hasValue());
  EXPECT_TRUE(checkUniqueBinders(Ctx, *Ok).hasValue());

  Result<const Term *> Dup = parseTerm(Ctx, "(let (a 1) (lambda (a) a))");
  ASSERT_TRUE(Dup.hasValue());
  EXPECT_FALSE(checkUniqueBinders(Ctx, *Dup).hasValue());

  // A binder shadowing a free variable also violates the hygiene rule.
  Result<const Term *> Shadow = parseTerm(Ctx, "(let (q z) (let (z 1) z))");
  ASSERT_TRUE(Shadow.hasValue());
  EXPECT_FALSE(checkUniqueBinders(Ctx, *Shadow).hasValue());
}

TEST(CheckClosed, FlagsUnboundVariables) {
  Context Ctx;
  Result<const Term *> R = parseTerm(Ctx, "(let (x z) x)");
  ASSERT_TRUE(R.hasValue());
  EXPECT_FALSE(checkClosed(Ctx, *R, {}).hasValue());
  EXPECT_TRUE(checkClosed(Ctx, *R, {Ctx.intern("z")}).hasValue());
}

TEST(Renamer, MakesBindersUnique) {
  Context Ctx;
  Result<const Term *> R = parseTerm(
      Ctx, "(let (a 1) (let (a (lambda (a) a)) (a (lambda (a) z))))");
  ASSERT_TRUE(R.hasValue());
  const Term *Renamed = renameUnique(Ctx, *R);
  EXPECT_TRUE(checkUniqueBinders(Ctx, Renamed).hasValue());
  // Free variables are untouched.
  EXPECT_TRUE(freeVars(Renamed).count(Ctx.intern("z")));
}

TEST(Renamer, NoOpOnAlreadyUniqueTerms) {
  Context Ctx;
  Result<const Term *> R =
      parseTerm(Ctx, "(let (a 1) (lambda (b) (b a)))");
  ASSERT_TRUE(R.hasValue());
  const Term *Renamed = renameUnique(Ctx, *R);
  EXPECT_TRUE(structurallyEqual(*R, Renamed));
}

TEST(Renamer, PreservesSemanticsOfShadowing) {
  Context Ctx;
  // (let (x 1) (let (x (add1 x)) x)) evaluates to 2; after renaming the
  // inner x must still refer to the right binder.
  Result<const Term *> R =
      parseTerm(Ctx, "(let (x 1) (let (x (add1 x)) x))");
  ASSERT_TRUE(R.hasValue());
  const Term *Renamed = renameUnique(Ctx, *R);
  EXPECT_TRUE(checkUniqueBinders(Ctx, Renamed).hasValue());
  // Shape: (let (x 1) (let (x' (add1 x)) x')).
  const auto *Outer = cast<LetTerm>(Renamed);
  const auto *Inner = cast<LetTerm>(Outer->body());
  EXPECT_NE(Outer->var(), Inner->var());
  const auto *Use = cast<ValueTerm>(Inner->body());
  EXPECT_EQ(cast<VarValue>(Use->value())->name(), Inner->var());
}

TEST(CountNodes, CountsTermsAndValues) {
  Context Ctx;
  Result<const Term *> R = parseTerm(Ctx, "(add1 1)");
  ASSERT_TRUE(R.hasValue());
  // App + 2 ValueTerms + 2 Values.
  EXPECT_EQ(countNodes(*R), 5u);
}

TEST(CollectLambdas, FindsNestedLambdas) {
  Context Ctx;
  Result<const Term *> R =
      parseTerm(Ctx, "(lambda (x) (lambda (y) (x y)))");
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(collectLambdas(*R).size(), 2u);
}

TEST(StructuralEquality, DistinguishesDifferentTerms) {
  Context Ctx;
  const Term *A = *parseTerm(Ctx, "(let (x 1) x)");
  const Term *B = *parseTerm(Ctx, "(let (x 2) x)");
  const Term *C = *parseTerm(Ctx, "(let (y 1) y)");
  EXPECT_TRUE(structurallyEqual(A, A));
  EXPECT_FALSE(structurallyEqual(A, B));
  EXPECT_FALSE(structurallyEqual(A, C)); // names matter
}

} // namespace

namespace {

TEST(AlphaEquivalence, IsAnEquivalenceRelationAndRespectsRenaming) {
  Context Ctx;
  gen::GenOptions Opts;
  Opts.Seed = 77;
  gen::ProgramGenerator Gen(Ctx, Opts);
  const Term *Prev = nullptr;
  for (int I = 0; I < 20; ++I) {
    const Term *T = Gen.generateFull();
    // Reflexive.
    EXPECT_TRUE(alphaEquivalent(T, T));
    // Renaming yields an alpha-equivalent term (symmetric check too).
    const Term *R = renameUnique(Ctx, T);
    EXPECT_TRUE(alphaEquivalent(T, R));
    EXPECT_TRUE(alphaEquivalent(R, T));
    // Programs of different sizes can never be alpha-equivalent.
    if (Prev && countNodes(T) != countNodes(Prev)) {
      EXPECT_FALSE(alphaEquivalent(T, Prev));
    }
    Prev = T;
  }
}

} // namespace

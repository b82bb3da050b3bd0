// Tests for the Omega-lite integer linear constraint solver and the A1/A2
// array restriction checks that use it.
#include <gtest/gtest.h>

#include <memory>

#include "analysis/affine.h"
#include "safeflow/driver.h"

namespace {

using namespace safeflow;
using analysis::LinearConstraint;
using analysis::LinearSystem;

// ---------------------------------------------------------------------------
// Solver unit tests
// ---------------------------------------------------------------------------

TEST(Affine, EmptySystemFeasible) {
  LinearSystem sys;
  EXPECT_TRUE(sys.isFeasible());
}

TEST(Affine, SimpleBoundsFeasible) {
  LinearSystem sys;
  const int x = sys.addVariable("x");
  sys.addLowerBound(x, 0);
  sys.addUpperBound(x, 10);
  EXPECT_TRUE(sys.isFeasible());
}

TEST(Affine, ContradictoryBoundsInfeasible) {
  LinearSystem sys;
  const int x = sys.addVariable("x");
  sys.addLowerBound(x, 11);
  sys.addUpperBound(x, 10);
  EXPECT_FALSE(sys.isFeasible());
}

TEST(Affine, TightBoundsStillFeasible) {
  LinearSystem sys;
  const int x = sys.addVariable("x");
  sys.addLowerBound(x, 10);
  sys.addUpperBound(x, 10);  // x == 10
  EXPECT_TRUE(sys.isFeasible());
}

TEST(Affine, TwoVariableChain) {
  // 0 <= x <= 5, y = x + 3, y >= 9  ->  x >= 6: infeasible.
  LinearSystem sys;
  const int x = sys.addVariable("x");
  const int y = sys.addVariable("y");
  sys.addLowerBound(x, 0);
  sys.addUpperBound(x, 5);
  LinearConstraint eq;  // y - x - 3 == 0
  eq.coeffs[y] = 1;
  eq.coeffs[x] = -1;
  eq.constant = -3;
  sys.addEquality(eq);
  sys.addLowerBound(y, 9);
  EXPECT_FALSE(sys.isFeasible());
}

TEST(Affine, TwoVariableChainFeasible) {
  LinearSystem sys;
  const int x = sys.addVariable("x");
  const int y = sys.addVariable("y");
  sys.addLowerBound(x, 0);
  sys.addUpperBound(x, 5);
  LinearConstraint eq;
  eq.coeffs[y] = 1;
  eq.coeffs[x] = -1;
  eq.constant = -3;
  sys.addEquality(eq);
  sys.addLowerBound(y, 8);  // y = x+3 <= 8 ok (x=5)
  EXPECT_TRUE(sys.isFeasible());
}

TEST(Affine, UnboundedVariableFeasible) {
  LinearSystem sys;
  const int x = sys.addVariable("x");
  sys.addLowerBound(x, 100);  // no upper bound
  EXPECT_TRUE(sys.isFeasible());
}

TEST(Affine, ConstantOnlyContradiction) {
  LinearSystem sys;
  LinearConstraint c;  // -1 >= 0
  c.constant = -1;
  sys.add(std::move(c));
  EXPECT_FALSE(sys.isFeasible());
}

TEST(Affine, ScaledCoefficients) {
  // 2x >= 5 and 2x <= 4: infeasible.
  LinearSystem sys;
  const int x = sys.addVariable("x");
  LinearConstraint lo;  // 2x - 5 >= 0
  lo.coeffs[x] = 2;
  lo.constant = -5;
  sys.add(std::move(lo));
  LinearConstraint hi;  // -2x + 4 >= 0
  hi.coeffs[x] = -2;
  hi.constant = 4;
  sys.add(std::move(hi));
  EXPECT_FALSE(sys.isFeasible());
}

TEST(Affine, StrDump) {
  LinearSystem sys;
  const int x = sys.addVariable("idx");
  sys.addLowerBound(x, 0);
  EXPECT_NE(sys.str().find(">= 0"), std::string::npos);
}

TEST(Affine, EqualityContradiction) {
  // x == 3 and x == 4 cannot both hold.
  LinearSystem sys;
  const int x = sys.addVariable("x");
  LinearConstraint e1;  // x - 3 == 0
  e1.coeffs[x] = 1;
  e1.constant = -3;
  sys.addEquality(std::move(e1));
  LinearConstraint e2;  // x - 4 == 0
  e2.coeffs[x] = 1;
  e2.constant = -4;
  sys.addEquality(std::move(e2));
  EXPECT_FALSE(sys.isFeasible());
}

TEST(Affine, EqualityConsistentWithBounds) {
  // x == 7 inside [0, 10] is satisfiable; pushing the upper bound below 7
  // makes it contradictory.
  LinearSystem sys;
  const int x = sys.addVariable("x");
  LinearConstraint eq;  // x - 7 == 0
  eq.coeffs[x] = 1;
  eq.constant = -7;
  sys.addEquality(std::move(eq));
  sys.addLowerBound(x, 0);
  sys.addUpperBound(x, 10);
  EXPECT_TRUE(sys.isFeasible());
  sys.addUpperBound(x, 6);
  EXPECT_FALSE(sys.isFeasible());
}

TEST(Affine, BoundHelpersMatchExplicitConstraints) {
  // addLowerBound/addUpperBound are sugar for the +-1-coefficient forms;
  // a system built from the helpers must agree with the explicit one.
  LinearSystem helpers;
  const int hx = helpers.addVariable("x");
  helpers.addLowerBound(hx, -5);
  helpers.addUpperBound(hx, -5);  // x == -5
  EXPECT_TRUE(helpers.isFeasible());

  LinearSystem explicit_sys;
  const int ex = explicit_sys.addVariable("x");
  LinearConstraint lo;  // x + 5 >= 0
  lo.coeffs[ex] = 1;
  lo.constant = 5;
  explicit_sys.add(std::move(lo));
  LinearConstraint hi;  // -x - 5 >= 0
  hi.coeffs[ex] = -1;
  hi.constant = -5;
  explicit_sys.add(std::move(hi));
  EXPECT_TRUE(explicit_sys.isFeasible());
}

TEST(Affine, BudgetTripFallsBackToFeasible) {
  // A genuinely infeasible system: with an exhausted budget the solver
  // must answer "feasible" (unprovable -> the violation gets reported),
  // never claim a proof it did not finish.
  LinearSystem sys;
  const int x = sys.addVariable("x");
  sys.addLowerBound(x, 11);
  sys.addLowerBound(x, 12);
  sys.addUpperBound(x, 10);
  sys.addUpperBound(x, 9);
  EXPECT_FALSE(sys.isFeasible());

  support::AnalysisBudget budget(support::BudgetLimits{0.0, 1});
  EXPECT_TRUE(sys.isFeasible(&budget));
  EXPECT_TRUE(budget.exhausted());
}

TEST(Affine, NearOverflowCoefficientsStayConservative) {
  // Shadow coefficients are products of input coefficients; K*K*10 here
  // overflows int64. The solver must detect the overflow and fall back to
  // "feasible" instead of reasoning from wrapped garbage. (The system is
  // in fact satisfiable: K*x >= 1 and K*x <= 10*K admit x in [1, 10].)
  constexpr std::int64_t kBig = INT64_C(3037000500);  // ~sqrt(INT64_MAX)
  LinearSystem sys;
  const int x = sys.addVariable("x");
  LinearConstraint lo;  // kBig*x - 1 >= 0
  lo.coeffs[x] = kBig;
  lo.constant = -1;
  sys.add(std::move(lo));
  LinearConstraint hi;  // -kBig*x + 10*kBig >= 0
  hi.coeffs[x] = -kBig;
  hi.constant = 10 * kBig;
  sys.add(std::move(hi));
  EXPECT_TRUE(sys.isFeasible());
}

TEST(Affine, OverflowInVariableCoefficientDetected) {
  // Same overflow guard on the eliminated pair's *variable* coefficients:
  // eliminating x pairs kBig (from the lower bound) with kBig*y terms.
  constexpr std::int64_t kBig = INT64_C(3037000500);
  LinearSystem sys;
  const int x = sys.addVariable("x");
  const int y = sys.addVariable("y");
  LinearConstraint lo;  // kBig*x + kBig*y >= 0
  lo.coeffs[x] = kBig;
  lo.coeffs[y] = kBig;
  sys.add(std::move(lo));
  LinearConstraint hi;  // -kBig*x + 1 >= 0
  hi.coeffs[x] = -kBig;
  hi.constant = 1;
  sys.add(std::move(hi));
  EXPECT_TRUE(sys.isFeasible());
}

// Parameterized: i in [0, N-1] indexing an array of N elements is always
// safe; indexing N+k elements beyond is always caught.
class AffineBoundsSweep : public ::testing::TestWithParam<int> {};

TEST_P(AffineBoundsSweep, LoopIndexWithinArrayIsFeasibleExactlyWhenItFits) {
  const int n = GetParam();
  // Violation system: 0 <= i <= n-1 and i >= 8 (array of 8 elements).
  LinearSystem sys;
  const int i = sys.addVariable("i");
  sys.addLowerBound(i, 0);
  sys.addUpperBound(i, n - 1);
  sys.addLowerBound(i, 8);
  EXPECT_EQ(sys.isFeasible(), n - 1 >= 8) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Bounds, AffineBoundsSweep,
                         ::testing::Values(1, 4, 8, 9, 12, 100));

// ---------------------------------------------------------------------------
// A1/A2 end-to-end through the driver
// ---------------------------------------------------------------------------

const char* kArrayPrelude = R"(
typedef struct Slot { float v; } Slot;
Slot *ring;

extern void *shmat(int shmid, void *addr, int flags);
extern int shmget(int key, int size, int flags);

/*** SafeFlow Annotation shminit ***/
void initRing(void)
{
  void *p;
  p = shmat(shmget(7, 8 * sizeof(Slot), 0), 0, 0);
  ring = (Slot *) p;
  /*** SafeFlow Annotation assume(shmvar(ring, 8 * sizeof(Slot))) ***/
  /*** SafeFlow Annotation assume(noncore(ring)) ***/
}
)";

std::unique_ptr<SafeFlowDriver> analyzeArrays(const std::string& body) {
  auto driver = std::make_unique<SafeFlowDriver>();
  driver->addSource("arrays.c", std::string(kArrayPrelude) + body);
  driver->analyze();
  EXPECT_FALSE(driver->hasFrontendErrors())
      << driver->diagnostics().render(driver->sources());
  return driver;
}

std::size_t countRule(const SafeFlowDriver& d, const std::string& rule) {
  std::size_t n = 0;
  for (const auto& v : d.report().restriction_violations) {
    if (v.rule == rule) ++n;
  }
  return n;
}

TEST(ArrayRules, ConstantIndexInBounds) {
  const auto d = analyzeArrays(
      "float get(void) { return ring[7].v; }\n"
      "int main(void) { initRing(); get(); return 0; }");
  EXPECT_EQ(countRule(*d, "A1"), 0u) << d->report().render(d->sources());
}

TEST(ArrayRules, ConstantIndexOutOfBounds) {
  const auto d = analyzeArrays(
      "float get(void) { return ring[8].v; }\n"
      "int main(void) { initRing(); get(); return 0; }");
  EXPECT_EQ(countRule(*d, "A1"), 1u) << d->report().render(d->sources());
}

TEST(ArrayRules, NegativeConstantIndex) {
  const auto d = analyzeArrays(
      "float get(void) { return ring[-1].v; }\n"
      "int main(void) { initRing(); get(); return 0; }");
  EXPECT_EQ(countRule(*d, "A1"), 1u);
}

TEST(ArrayRules, AffineLoopInBounds) {
  const auto d = analyzeArrays(
      "float sum(void) {\n"
      "  float t = 0.0f;\n"
      "  for (int i = 0; i < 8; i++) { t += ring[i].v; }\n"
      "  return t;\n"
      "}\n"
      "int main(void) { initRing(); sum(); return 0; }");
  EXPECT_EQ(countRule(*d, "A2"), 0u) << d->report().render(d->sources());
}

TEST(ArrayRules, AffineLoopOverruns) {
  const auto d = analyzeArrays(
      "float sum(void) {\n"
      "  float t = 0.0f;\n"
      "  for (int i = 0; i < 9; i++) { t += ring[i].v; }\n"
      "  return t;\n"
      "}\n"
      "int main(void) { initRing(); sum(); return 0; }");
  EXPECT_GE(countRule(*d, "A2"), 1u) << d->report().render(d->sources());
}

TEST(ArrayRules, AffineLoopWithOffsetOverruns) {
  const auto d = analyzeArrays(
      "float sum(void) {\n"
      "  float t = 0.0f;\n"
      "  for (int i = 0; i < 8; i++) { t += ring[i + 1].v; }\n"
      "  return t;\n"
      "}\n"
      "int main(void) { initRing(); sum(); return 0; }");
  EXPECT_GE(countRule(*d, "A2"), 1u);
}

TEST(ArrayRules, AffineLoopScaledInBounds) {
  const auto d = analyzeArrays(
      "float sum(void) {\n"
      "  float t = 0.0f;\n"
      "  for (int i = 0; i < 4; i++) { t += ring[2 * i].v; }\n"
      "  return t;\n"
      "}\n"
      "int main(void) { initRing(); sum(); return 0; }");
  EXPECT_EQ(countRule(*d, "A2"), 0u) << d->report().render(d->sources());
}

TEST(ArrayRules, ArgumentRangeDischargesBoundsCheck) {
  // k is not an induction variable, but the interprocedural range
  // analysis proves k == 3 from the only call site, so A2 discharges.
  const auto d = analyzeArrays(
      "float get(int k) { return ring[k].v; }\n"
      "int main(void) { initRing(); get(3); return 0; }");
  EXPECT_EQ(countRule(*d, "A2"), 0u) << d->report().render(d->sources());
}

TEST(ArrayRules, UnboundedSymbolRejectedWithoutRanges) {
  // With the range analysis disabled the same program has no provable
  // bound on k and the A2 obligation must be reported.
  SafeFlowOptions o;
  o.ranges.enabled = false;
  SafeFlowDriver d(o);
  d.addSource("arrays.c",
              std::string(kArrayPrelude) +
                  "float get(int k) { return ring[k].v; }\n"
                  "int main(void) { initRing(); get(3); return 0; }");
  d.analyze();
  ASSERT_FALSE(d.hasFrontendErrors());
  EXPECT_GE(countRule(d, "A2"), 1u) << d.report().render(d.sources());
}

TEST(ArrayRules, OutOfRangeArgumentStillRejected) {
  // The range analysis bounds k to [9, 9] — inside the provable range the
  // access is still out of bounds, so discharging must not occur.
  const auto d = analyzeArrays(
      "float get(int k) { return ring[k].v; }\n"
      "int main(void) { initRing(); get(9); return 0; }");
  EXPECT_GE(countRule(*d, "A2"), 1u) << d->report().render(d->sources());
}

TEST(ArrayRules, NonAffineIndexRejected) {
  const auto d = analyzeArrays(
      "float get(void) {\n"
      "  float t = 0.0f;\n"
      "  for (int i = 0; i < 3; i++) { t += ring[i * i].v; }\n"
      "  return t;\n"
      "}\n"
      "int main(void) { initRing(); get(); return 0; }");
  EXPECT_GE(countRule(*d, "A2"), 1u);
}

TEST(ArrayRules, DownCountingLoopInBounds) {
  const auto d = analyzeArrays(
      "float sum(void) {\n"
      "  float t = 0.0f;\n"
      "  for (int i = 7; i >= 0; i--) { t += ring[i].v; }\n"
      "  return t;\n"
      "}\n"
      "int main(void) { initRing(); sum(); return 0; }");
  EXPECT_EQ(countRule(*d, "A2"), 0u) << d->report().render(d->sources());
}

}  // namespace

// Tests for the A1/A2 array restriction checks: hand-written cases, and a
// seeded oracle that enumerates every access of generated loop nests.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "safeflow/driver.h"

namespace {

using namespace safeflow;

/// `ring`, a shared array of `slots` one-float Slots, set up by initRing.
std::string ringPrelude(int slots) {
  const std::string bytes = std::to_string(slots) + " * sizeof(Slot)";
  return R"(
typedef struct Slot { float v; } Slot;
Slot *ring;

extern void *shmat(int shmid, void *addr, int flags);
extern int shmget(int key, int size, int flags);
extern int pick(void);

/*** SafeFlow Annotation shminit ***/
void initRing(void)
{
  void *p;
  p = shmat(shmget(7, )" + bytes + R"(, 0), 0, 0);
  ring = (Slot *) p;
  /*** SafeFlow Annotation assume(shmvar(ring, )" + bytes + R"()) ***/
  /*** SafeFlow Annotation assume(noncore(ring)) ***/
}
)";
}

std::unique_ptr<SafeFlowDriver> analyzeArrays(const std::string& body,
                                              int slots = 8,
                                              SafeFlowOptions options = {}) {
  auto driver = std::make_unique<SafeFlowDriver>(options);
  driver->addSource("arrays.c", ringPrelude(slots) + body);
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

std::vector<std::string> messages(const SafeFlowDriver& d,
                                  const std::string& rule) {
  std::vector<std::string> out;
  for (const auto& v : d.report().restriction_violations) {
    if (v.rule == rule) out.push_back(v.message);
  }
  return out;
}

using Messages = std::vector<std::string>;

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

// 2^62 elements of 4 bytes: the byte offset overflows int64. Shm
// propagation widens the pointer and points-to takes the variable-index
// edge instead of computing it (the sanitizer build halted here); the
// access is still outside the array.
TEST(ArrayRules, ConstantIndexWhoseByteOffsetOverflows) {
  const auto d = analyzeArrays(
      "float get(void) { return ring[4611686018427387904].v; }\n"
      "int main(void) { initRing(); get(); return 0; }");
  EXPECT_EQ(messages(*d, "A1"),
            Messages{"constant index 4611686018427387904 exceeds shared "
                     "array 'ring' of 8 elements (rule A1)"});
  EXPECT_FALSE(d->degraded());
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
  const auto d = analyzeArrays(
      "float get(int k) { return ring[k].v; }\n"
      "int main(void) { initRing(); get(3); return 0; }",
      8, o);
  EXPECT_GE(countRule(*d, "A2"), 1u) << d->report().render(d->sources());
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

// A symbol that appears twice is one term with the summed coefficient:
// `i + i` reaches element 30 of 16.
TEST(ArrayRules, RepeatedSymbolIsOneTerm) {
  const auto d = analyzeArrays(
      "float sum(void) {\n"
      "  float acc = 0.0f;\n"
      "  int i;\n"
      "  for (i = 0; i < 16; i++) { acc += ring[i + i].v; }\n"
      "  return acc;\n"
      "}\n"
      "int main(void) { initRing(); sum(); return 0; }",
      16);
  EXPECT_EQ(messages(*d, "A2"),
            Messages{"index into shared array 'ring' may exceed its 16 "
                     "elements (rule A2)"})
      << d->report().render(d->sources());
}

TEST(ArrayRules, SymbolThatCancelsOutIsClean) {
  const auto d = analyzeArrays(
      "float sum(void) {\n"
      "  float acc = 0.0f;\n"
      "  int i;\n"
      "  for (i = 0; i < 16; i++) { acc += ring[i + i - i].v; }\n"
      "  return acc;\n"
      "}\n"
      "int main(void) { initRing(); sum(); return 0; }",
      16);
  EXPECT_EQ(countRule(*d, "A1") + countRule(*d, "A2"), 0u)
      << d->report().render(d->sources());
}

// p starts at element 0 or 10: every index is checked from both ends of
// that range, so p[8] and p[0..7] can read past element 15.
TEST(ArrayRules, TwoWayBaseIsCheckedFromItsHighestOffset) {
  const auto d = analyzeArrays(
      "float one(int c) {\n"
      "  Slot *p;\n"
      "  p = c ? &ring[0] : &ring[10];\n"
      "  return p[8].v;\n"
      "}\n"
      "float loop(int c) {\n"
      "  Slot *p;\n"
      "  float acc = 0.0f;\n"
      "  int i;\n"
      "  p = c ? &ring[0] : &ring[10];\n"
      "  for (i = 0; i < 8; i++) { acc += p[i].v; }\n"
      "  return acc;\n"
      "}\n"
      "int main(void) { initRing(); one(pick()); loop(pick()); return 0; }",
      16);
  EXPECT_EQ(messages(*d, "A1"),
            Messages{"constant index 8 exceeds shared array 'ring' of 16 "
                     "elements (rule A1)"})
      << d->report().render(d->sources());
  EXPECT_EQ(messages(*d, "A2"),
            Messages{"index into shared array 'ring' may exceed its 16 "
                     "elements (rule A2)"})
      << d->report().render(d->sources());
}

// From element 10, p[-3] reads element 7: "may be negative", but not
// always outside the array.
TEST(ArrayRules, NegativeIndexFromTwoWayBaseIsNotDefinite) {
  const auto d = analyzeArrays(
      "float get(int c, int k) {\n"
      "  Slot *p;\n"
      "  p = c ? &ring[0] : &ring[10];\n"
      "  if (k < -5 || k > -1) { return 0.0f; }\n"
      "  return p[k].v;\n"
      "}\n"
      "int main(void) { initRing(); get(pick(), -3); return 0; }",
      16);
  EXPECT_EQ(messages(*d, "A2"),
            Messages{"index into shared array 'ring' may be negative (rule "
                     "A2)"})
      << d->report().render(d->sources());
  EXPECT_EQ(countRule(*d, "shm-bounds-const"), 0u)
      << d->report().render(d->sources());
}

// 4 * 2^62 does not fit in int64: the index is not a provable affine
// expression (it must not wrap to the constant 0).
TEST(ArrayRules, OverflowingCoefficientIsNotAffine) {
  const auto d = analyzeArrays(
      "float sum(void) {\n"
      "  float acc = 0.0f;\n"
      "  int i;\n"
      "  for (i = 0; i < 16; i++) {\n"
      "    acc += ring[i * 4 * 4611686018427387904].v;\n"
      "  }\n"
      "  return acc;\n"
      "}\n"
      "int main(void) { initRing(); sum(); return 0; }",
      16);
  EXPECT_EQ(messages(*d, "A2"),
            Messages{"index into shared array 'ring' is not a provable "
                     "affine expression (rule A2)"})
      << d->report().render(d->sources());
}

// The checker takes one budget step per function. Out of steps, the
// functions after the trip go unchecked, so the run must not certify.
TEST(ArrayRules, StepBudgetBelowTheFunctionCountDegradesRestrictions) {
  SafeFlowOptions options;
  options.budget.phase_steps = 3;
  const auto d = analyzeArrays(
      "float a(void) { return ring[0].v; }\n"
      "float b(void) { return ring[1].v; }\n"
      "float c(void) { return ring[2].v; }\n"
      "float e(void) { return ring[3].v; }\n"
      "int main(void) { initRing(); a(); b(); c(); e(); return 0; }",
      8, options);
  const auto& phases = d->report().degraded_phases;
  EXPECT_NE(std::find(phases.begin(), phases.end(), "restrictions"),
            phases.end())
      << d->report().render(d->sources());
  EXPECT_TRUE(d->degraded());
  EXPECT_NE(d->report().render(d->sources()).find("DEGRADED"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Bounds oracle: seeded loop nests whose every access the test enumerates
// ---------------------------------------------------------------------------

constexpr int kSlots = 8;

/// for (i = lo[0]; i < hi[0]; i++) [for (j = lo[1]; j < hi[1]; j++)]
///   acc = acc + p[k0 + k1 * i + k2 * j + k3 * i].v;
/// with p either `ring` or `c ? &ring[b0] : &ring[b1]`, c unknown.
struct LoopNest {
  int depth = 1;
  int lo[2] = {0, 0};
  int hi[2] = {1, 1};
  int k[4] = {0, 0, 0, 0};
  bool two_way = false;
  int b[2] = {0, 0};

  /// Calls `visit(element)` for every element the nest reads.
  template <typename Visit>
  void forEachAccess(Visit visit) const {
    const int j_lo = depth == 2 ? lo[1] : 0;
    const int j_hi = depth == 2 ? hi[1] : 1;
    for (int base = 0; base < (two_way ? 2 : 1); ++base) {
      for (int i = lo[0]; i < hi[0]; ++i) {
        for (int j = j_lo; j < j_hi; ++j) {
          visit(b[base] + k[0] + k[1] * i + k[2] * j + k[3] * i);
        }
      }
    }
  }

  [[nodiscard]] std::string source() const {
    std::ostringstream s;
    s << "float walk(int c) {\n"
      << "  Slot *p;\n  float acc;\n  int i;\n  int j;\n"
      << "  acc = 0.0f;\n";
    if (two_way) {
      s << "  p = c ? &ring[" << b[0] << "] : &ring[" << b[1] << "];\n";
    } else {
      s << "  p = ring;\n";
    }
    s << "  for (i = " << lo[0] << "; i < " << hi[0] << "; i++) {\n";
    if (depth == 2) {
      s << "  for (j = " << lo[1] << "; j < " << hi[1] << "; j++) {\n";
    }
    s << "    acc = acc + p[" << k[0] << " + (" << k[1] << ") * i";
    if (depth == 2) s << " + (" << k[2] << ") * j";
    s << " + (" << k[3] << ") * i].v;\n";
    s << (depth == 2 ? "  }\n  }\n" : "  }\n");
    s << "  return acc;\n}\n"
      << "int main(void) { initRing(); walk(pick()); return 0; }\n";
    return s.str();
  }
};

LoopNest randomNest(std::mt19937& rng) {
  const auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  LoopNest n;
  n.depth = pick(1, 2);
  for (int d = 0; d < n.depth; ++d) {
    n.lo[d] = pick(-4, 6);
    n.hi[d] = n.lo[d] + pick(1, 5);
  }
  for (int d = 1; d < 4; ++d) n.k[d] = pick(-3, 3);
  if (n.depth == 1) n.k[2] = 0;
  n.two_way = pick(0, 1) == 1;
  if (n.two_way) {
    n.b[0] = pick(0, kSlots - 1);
    n.b[1] = pick(0, kSlots - 1);
  }
  // Pick the constant around the values that keep every access in
  // bounds, so that about half the nests stay in and half leave.
  int min = kSlots;
  int max = -kSlots;
  n.forEachAccess([&](int at) {
    min = std::min(min, at);
    max = std::max(max, at);
  });
  int from = -min - 1;
  int to = kSlots - max;
  if (from > to) std::swap(from, to);
  n.k[0] = pick(from, to);
  return n;
}

// A1/A2 fire exactly when some access leaves [0, kSlots), with the range
// pass and without it: the interval test is exact on a box of loop
// bounds. shm-bounds-const fires only when every access leaves.
TEST(ArrayRules, BoundsOracleOverSeededLoopNests) {
  std::mt19937 rng(20061);
  int leaving = 0;
  int definite = 0;
  constexpr int kNests = 300;
  for (int n = 0; n < kNests; ++n) {
    const LoopNest nest = randomNest(rng);
    bool some_out = false;
    bool all_out = true;
    nest.forEachAccess([&](int at) {
      const bool out = at < 0 || at >= kSlots;
      some_out |= out;
      all_out &= out;
    });
    leaving += some_out ? 1 : 0;
    for (const bool ranges : {true, false}) {
      SafeFlowOptions options;
      options.ranges.enabled = ranges;
      const auto d = analyzeArrays(nest.source(), kSlots, options);
      const std::string context =
          (ranges ? "" : "--no-ranges\n") + nest.source() +
          d->report().render(d->sources());
      EXPECT_EQ(countRule(*d, "A1") + countRule(*d, "A2") > 0, some_out)
          << context;
      if (countRule(*d, "shm-bounds-const") > 0) {
        ++definite;
        EXPECT_TRUE(all_out) << context;
      }
    }
  }
  // The generator reaches both verdicts, and the definite check fires.
  EXPECT_GT(leaving, kNests / 4);
  EXPECT_LT(leaving, kNests * 3 / 4);
  EXPECT_GT(definite, 0);
}

}  // namespace

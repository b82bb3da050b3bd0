// Restriction-checking microbenchmarks (paper §3.2): each of P1, P2, P3,
// A1, A2 violated in isolation, verifying the checker fires exactly once
// per seeded violation, and the clean corpora firing none.
#include <benchmark/benchmark.h>

#include <string>

#include "bench/synthetic.h"
#include "safeflow/corpus_info.h"
#include "safeflow/driver.h"

namespace {

using namespace safeflow;

std::size_t ruleCount(const analysis::SafeFlowReport& report,
                      const std::string& rule) {
  std::size_t n = 0;
  for (const auto& v : report.restriction_violations) {
    if (v.rule == rule) ++n;
  }
  return n;
}

const char* kMutants[][2] = {
    {"P1", "extern int shmdt(void *a);\n"
           "void bad(void) { shmdt(r0); }\n"
           "int main(void) { initShm(); bad(); return 0; }\n"},
    {"P2", "Cell *stash[2];\n"
           "void bad(void) { stash[0] = r0; }\n"
           "int main(void) { initShm(); bad(); return 0; }\n"},
    {"P3", "typedef struct Wide { double a; double b; } Wide;\n"
           "double bad(void) { Wide *w = (Wide *)r0; return w->a; }\n"
           "int main(void) { initShm(); bad(); return 0; }\n"},
    {"A1", "float bad(void) { return r1[5].value; }\n"
           "int main(void) { initShm(); bad(); return 0; }\n"},
    {"A2", "float bad(void) {\n"
           "  float t = 0.0f;\n"
           "  for (int i = 0; i < 3; i++) { t += r1[i].value; }\n"
           "  return t;\n}\n"
           "int main(void) { initShm(); bad(); return 0; }\n"},
};

void BM_RestrictionMutant(benchmark::State& state) {
  const auto& [rule, body] = kMutants[state.range(0)];
  // r1 spans a single Cell by default; A1/A2 index past it.
  const std::string source = bench::shmPrelude(2) + body;
  std::size_t fired = 0;
  for (auto _ : state) {
    SafeFlowDriver driver;
    driver.addSource("mutant.c", source);
    fired = ruleCount(driver.analyze(), rule);
    benchmark::DoNotOptimize(fired);
  }
  state.counters["violations"] = static_cast<double>(fired);
  state.SetLabel(rule);
}
BENCHMARK(BM_RestrictionMutant)->DenseRange(0, 4);

void BM_CleanCorpusHasNoViolations(benchmark::State& state) {
  // The paper: "no source changes were necessary for the systems to
  // adhere to our language restrictions" — the corpora stay clean.
  const auto systems = corpusSystems(SAFEFLOW_CORPUS_DIR);
  std::size_t total = 0;
  const SafeFlowOptions options = corpusAnalysisOptions();
  for (auto _ : state) {
    total = 0;
    for (const auto& sys : systems) {
      SafeFlowDriver driver(options);
      for (const auto& f : sys.core_files) driver.addFile(f);
      total += driver.analyze().restriction_violations.size();
    }
  }
  state.counters["violations"] = static_cast<double>(total);
}
BENCHMARK(BM_CleanCorpusHasNoViolations);

}  // namespace

BENCHMARK_MAIN();

// Tests for the incremental analysis cache: the FNV-1a hasher against
// known vectors, DiskCache durability and LRU eviction, CacheManager
// key sensitivity (content, flags, order, path), misses after header
// edits (the entry records what the run read), corrupt-entry fallback,
// and end-to-end warm runs through the real supervisor (SAFEFLOW_EXE
// worker) including the edit-one-TU and edit-one-header cases.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "safeflow/cache_manager.h"
#include "safeflow/driver.h"
#include "safeflow/run_output.h"
#include "safeflow/supervisor.h"
#include "support/cache.h"
#include "support/metrics.h"

namespace {

using namespace safeflow;

const std::string kCorpus = SAFEFLOW_CORPUS_DIR;

std::string freshDir(const std::string& leaf) {
  // Suffix with the pid: ctest runs each discovered test as its own
  // process, possibly in parallel, and fixed names would collide.
  const std::string dir = ::testing::TempDir() + "/" + leaf + "." +
                          std::to_string(::getpid());
  std::string cmd = "rm -rf '" + dir + "'";
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  return dir;
}

void writeFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out << contents;
}

std::string readFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

void setMtime(const std::string& path, time_t seconds) {
  struct timespec times[2];
  times[0].tv_sec = seconds;
  times[0].tv_nsec = 0;
  times[1].tv_sec = seconds;
  times[1].tv_nsec = 0;
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0) << path;
}

TEST(Fnv1a, MatchesPublishedVectors) {
  // Reference vectors for 64-bit FNV-1a.
  EXPECT_EQ(support::fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(support::fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(support::fnv1a("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1a, IncrementalEqualsOneShotAndHexIsPadded) {
  support::Fnv1a h;
  h.update("foo");
  h.update("");
  h.update("bar");
  EXPECT_EQ(h.digest(), support::fnv1a("foobar"));
  EXPECT_EQ(h.hex().size(), 16u);
  EXPECT_EQ(h.hex(), "85944171f73967e8");

  // Embedded NUL bytes participate in the digest.
  support::Fnv1a with_nul;
  with_nul.update(std::string_view("a\0b", 3));
  EXPECT_NE(with_nul.digest(), support::fnv1a("ab"));
}

TEST(DiskCache, StoreLookupOverwriteRemove) {
  support::DiskCache cache({freshDir("disk_basic"), 0});
  ASSERT_TRUE(cache.ensureDir());
  EXPECT_FALSE(cache.lookup("00aa").has_value());

  EXPECT_TRUE(cache.store("00aa", "payload one").ok);
  ASSERT_TRUE(cache.lookup("00aa").has_value());
  EXPECT_EQ(*cache.lookup("00aa"), "payload one");
  EXPECT_EQ(cache.totalBytes(), std::string("payload one").size());

  // Overwrite replaces atomically; no second entry appears.
  EXPECT_TRUE(cache.store("00aa", "two").ok);
  EXPECT_EQ(*cache.lookup("00aa"), "two");
  EXPECT_EQ(cache.totalBytes(), 3u);

  cache.remove("00aa");
  EXPECT_FALSE(cache.lookup("00aa").has_value());
  EXPECT_EQ(cache.totalBytes(), 0u);
}

TEST(DiskCache, EnsureDirCreatesMissingParents) {
  const std::string root = freshDir("disk_parents");
  support::DiskCache cache({root + "/a/b/c", 0});
  std::string error;
  ASSERT_TRUE(cache.ensureDir(&error)) << error;
  struct stat st{};
  EXPECT_EQ(::stat((root + "/a/b/c").c_str(), &st), 0);
  EXPECT_TRUE(S_ISDIR(st.st_mode));
  // Idempotent.
  EXPECT_TRUE(cache.ensureDir());
}

TEST(DiskCache, EvictsOldestMtimeFirstAndSparesTheFreshWrite) {
  // Cap fits two 10-byte payloads; the third write must evict exactly
  // the entry with the oldest mtime, never the entry just written.
  support::DiskCache cache({freshDir("disk_lru"), 20});
  ASSERT_TRUE(cache.ensureDir());
  ASSERT_TRUE(cache.store("aaaa", "0123456789").ok);
  ASSERT_TRUE(cache.store("bbbb", "0123456789").ok);
  // Pin recency explicitly so the test never races the clock:
  // aaaa is old, bbbb is recent.
  setMtime(cache.entryPath("aaaa"), 1000);
  setMtime(cache.entryPath("bbbb"), 2000);

  const auto stored = cache.store("cccc", "0123456789");
  ASSERT_TRUE(stored.ok);
  EXPECT_EQ(stored.evicted, 1u);
  EXPECT_FALSE(cache.lookup("aaaa").has_value());  // LRU victim
  EXPECT_TRUE(cache.lookup("bbbb").has_value());
  EXPECT_TRUE(cache.lookup("cccc").has_value());
  EXPECT_LE(cache.totalBytes(), 20u);
}

TEST(DiskCache, LookupRefreshesRecency) {
  support::DiskCache cache({freshDir("disk_touch"), 20});
  ASSERT_TRUE(cache.ensureDir());
  ASSERT_TRUE(cache.store("aaaa", "0123456789").ok);
  ASSERT_TRUE(cache.store("bbbb", "0123456789").ok);
  setMtime(cache.entryPath("aaaa"), 1000);
  setMtime(cache.entryPath("bbbb"), 2000);
  // Touch aaaa: its mtime moves to "now", far past 2000, so bbbb
  // becomes the LRU victim.
  ASSERT_TRUE(cache.lookup("aaaa").has_value());
  const auto stored = cache.store("cccc", "0123456789");
  ASSERT_TRUE(stored.ok);
  EXPECT_EQ(stored.evicted, 1u);
  EXPECT_TRUE(cache.lookup("aaaa").has_value());
  EXPECT_FALSE(cache.lookup("bbbb").has_value());
}

TEST(DiskCache, StrayTempFilesAreIgnoredAndSweptOnceAged) {
  const std::string dir = freshDir("disk_tmp");
  support::DiskCache cache({dir, 5});
  ASSERT_TRUE(cache.ensureDir());
  // Simulate a crash mid-store: a temp file with no final entry. It is
  // never a valid entry (not counted, not served). While *fresh* it may
  // equally belong to a live concurrent store() whose rename would fail
  // if the temp vanished, so eviction must leave it alone; once it ages
  // past the grace period the next LRU pass reclaims its bytes.
  const std::string temp = dir + "/dead.tmp.12345.1";
  writeFile(temp, "torn bytes");
  EXPECT_EQ(cache.totalBytes(), 0u);  // temps never count
  EXPECT_FALSE(cache.lookup("dead").has_value());
  auto stored = cache.store("aaaa", "x");
  ASSERT_TRUE(stored.ok);
  EXPECT_EQ(stored.evicted, 0u);  // fresh temp: protected by the grace
  struct stat st{};
  EXPECT_EQ(::stat(temp.c_str(), &st), 0);  // still there

  setMtime(temp, ::time(nullptr) - 3600);  // now provably abandoned
  stored = cache.store("bbbb", "y");
  ASSERT_TRUE(stored.ok);
  EXPECT_EQ(stored.evicted, 1u);  // the swept temp
  EXPECT_NE(::stat(temp.c_str(), &st), 0);  // gone
  EXPECT_TRUE(cache.lookup("aaaa").has_value());
  EXPECT_TRUE(cache.lookup("bbbb").has_value());
}

TEST(DiskCache, SweepStrayTempsHonorsTheAgeFloor) {
  const std::string dir = freshDir("disk_sweep");
  support::DiskCache cache({dir, 0});
  ASSERT_TRUE(cache.ensureDir());
  writeFile(dir + "/young.tmp.1.1", "live writer");
  writeFile(dir + "/old.tmp.2.2", "crashed writer");
  setMtime(dir + "/old.tmp.2.2", ::time(nullptr) - 3600);
  ASSERT_TRUE(cache.store("aaaa", "entry").ok);

  EXPECT_EQ(cache.sweepStrayTemps(), 1u);
  struct stat st{};
  EXPECT_EQ(::stat((dir + "/young.tmp.1.1").c_str(), &st), 0);  // spared
  EXPECT_NE(::stat((dir + "/old.tmp.2.2").c_str(), &st), 0);    // swept
  // Real entries are never touched, whatever their age.
  EXPECT_TRUE(cache.lookup("aaaa").has_value());
  // Idempotent: nothing old remains.
  EXPECT_EQ(cache.sweepStrayTemps(), 0u);
}

TEST(DiskCache, ConcurrentMultiProcessStoresStayCoherent) {
  // Three writer processes hammer one cache dir with a small cap (so
  // eviction runs constantly) over overlapping LCG key streams, each
  // payload a pure function of its key. The atomic temp+rename
  // discipline must keep every lookup either a miss or the exact
  // payload — never torn bytes — and every store() call succeeding.
  const std::string dir = freshDir("disk_mp");
  const auto payloadFor = [](std::uint64_t key) {
    // Distinct sizes exercise the eviction totals too.
    return std::string(32 + key % 97, static_cast<char>('a' + key % 23));
  };
  const auto keyHex = [](std::uint64_t key) {
    support::Fnv1a h;
    h.update(std::to_string(key % 41));  // 41 keys; writers overlap
    return h.hex();
  };

  constexpr int kWriters = 3;
  constexpr std::uint64_t kIters = 300;
  std::vector<pid_t> children;
  for (int w = 0; w < kWriters; ++w) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: cap 4 KiB forces eviction nearly every store.
      support::DiskCache cache({dir, 4096});
      if (!cache.ensureDir()) ::_exit(2);
      std::uint64_t state = 0x5afe + static_cast<std::uint64_t>(w);
      for (std::uint64_t i = 0; i < kIters; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::uint64_t key = state >> 17;
        if (state % 3 == 0) {
          const auto found = cache.lookup(keyHex(key));
          if (found.has_value() && *found != payloadFor(key % 41)) {
            ::_exit(3);  // torn or foreign payload: the race we fear
          }
        } else if (!cache.store(keyHex(key), payloadFor(key % 41)).ok) {
          ::_exit(4);  // a concurrent writer broke an atomic store
        }
      }
      ::_exit(0);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "writer failed (3 = torn read, 4 = failed store)";
  }

  // Whatever survived the eviction storms is well-formed.
  support::DiskCache cache({dir, 4096});
  for (std::uint64_t key = 0; key < 41; ++key) {
    const auto found = cache.lookup(keyHex(key));
    if (found.has_value()) {
      EXPECT_EQ(*found, payloadFor(key % 41));
    }
  }
}

// --- CacheManager key composition -----------------------------------

/// The CLI's in-process run of `files`, as a warm lookup replays it.
RunOutput coldRun(const std::vector<std::string>& files,
                  const std::vector<std::string>& include_dirs) {
  SafeFlowOptions options;
  options.include_dirs = include_dirs;
  SafeFlowDriver driver(options);
  return analyzeAndRender(driver, files, RenderOptions{});
}

struct KeyFixture {
  std::string src_dir = freshDir("key_src");
  std::string inc_dir;
  CacheOptions options;

  KeyFixture() {
    EXPECT_EQ(std::system(("mkdir -p '" + src_dir + "'").c_str()), 0);
    inc_dir = src_dir + "/inc";
    EXPECT_EQ(std::system(("mkdir -p '" + inc_dir + "'").c_str()), 0);
    writeFile(src_dir + "/a.c",
              "#include \"shared.h\"\nint core_main(void) { return 0; }\n");
    writeFile(src_dir + "/shared.h", "int shared_value;\n");
    options.enabled = true;
    options.dir = freshDir("key_cache");
    options.analysis_flags = {"-I", inc_dir};
  }

  [[nodiscard]] std::string key() const {
    support::MetricsRegistry registry;
    CacheManager manager(options, &registry);
    return manager.keyFor({src_dir + "/a.c"}).hex;
  }

  /// Analyzes a.c with -I inc and stores the run under its key.
  void storeRun() const {
    support::MetricsRegistry registry;
    CacheManager manager(options, &registry);
    const std::vector<std::string> files = {src_dir + "/a.c"};
    const RunOutput run = coldRun(files, {inc_dir});
    ASSERT_EQ(run.exit_code, 0) << run.stderr_text;
    manager.store(manager.keyFor(files).hex, run);
    ASSERT_EQ(registry.counterValue("cache.writes"), 1u);
  }

  /// Looks a.c up as a warm run would. A miss is a plain one: nothing
  /// is reported corrupt and the entry stays on disk for the cold run
  /// to store over.
  [[nodiscard]] bool hits() const {
    support::MetricsRegistry registry;
    CacheManager manager(options, &registry);
    const CacheKey key = manager.keyFor({src_dir + "/a.c"});
    testing::internal::CaptureStderr();
    const bool hit = manager.lookup(key).has_value();
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    EXPECT_EQ(registry.counterValue(hit ? "cache.hits" : "cache.misses"), 1u);
    EXPECT_EQ(registry.counterValue("cache.corrupt"), 0u);
    support::DiskCache disk({options.dir, 0});
    EXPECT_TRUE(disk.lookup(key.hex).has_value());
    return hit;
  }
};

TEST(CacheKey, StableAcrossRepeatedComputation) {
  KeyFixture fx;
  const std::string first = fx.key();
  EXPECT_EQ(first.size(), 16u);
  EXPECT_EQ(first, fx.key());
}

TEST(CacheKey, ChangesWithTuContent) {
  KeyFixture fx;
  const std::string before = fx.key();
  writeFile(fx.src_dir + "/a.c",
            "#include \"shared.h\"\nint core_main(void) { return 1; }\n");
  EXPECT_NE(fx.key(), before);
}

// Headers are not in the key: the entry records every header the run
// read, and a lookup after any of them changed misses.
TEST(CacheKey, ChangesWithIncludedHeaderContent) {
  KeyFixture fx;
  fx.storeRun();
  EXPECT_TRUE(fx.hits());
  writeFile(fx.src_dir + "/shared.h", "int shared_value; /* edited */\n");
  EXPECT_FALSE(fx.hits());
}

TEST(CacheKey, ChangesWithTransitiveHeaderContent) {
  KeyFixture fx;
  writeFile(fx.src_dir + "/shared.h",
            "#include \"nested.h\"\nint shared_value;\n");
  writeFile(fx.src_dir + "/nested.h", "int nested_value;\n");
  fx.storeRun();
  EXPECT_TRUE(fx.hits());
  writeFile(fx.src_dir + "/nested.h", "int nested_value; /* edited */\n");
  EXPECT_FALSE(fx.hits());
}

TEST(CacheKey, ChangesWithAnalysisFlags) {
  KeyFixture fx;
  const std::string before = fx.key();
  fx.options.analysis_flags = {"--mode=call-strings"};
  EXPECT_NE(fx.key(), before);
  fx.options.analysis_flags = {"-I", fx.inc_dir, "--time-budget", "250ms"};
  EXPECT_NE(fx.key(), before);
}

TEST(CacheKey, ChangesWhenAnUnresolvedHeaderAppears) {
  // later.h resolves through -I inc only after the run failed to open
  // it beside a.c. A later.h appearing there is what a cold run would
  // include, so the lookup must miss.
  KeyFixture fx;
  writeFile(fx.src_dir + "/a.c",
            "#include \"later.h\"\nint core_main(void) { return 0; }\n");
  writeFile(fx.inc_dir + "/later.h", "int later_value;\n");
  fx.storeRun();
  EXPECT_TRUE(fx.hits());
  writeFile(fx.src_dir + "/later.h", "int later_value;\n");
  EXPECT_FALSE(fx.hits());
}

TEST(CacheKey, ChangesWithFilePathAndInputOrder) {
  // Reports embed path strings, so identical bytes under a different
  // name or a different input order must not hit.
  KeyFixture fx;
  const std::string a = fx.src_dir + "/a.c";
  const std::string b = fx.src_dir + "/b.c";
  writeFile(b, readFileOrEmpty(a));

  support::MetricsRegistry registry;
  CacheManager manager(fx.options, &registry);
  EXPECT_NE(manager.keyFor({a}).hex, manager.keyFor({b}).hex);
  EXPECT_NE(manager.keyFor({a, b}).hex, manager.keyFor({b, a}).hex);
}

// --- CacheManager store/lookup robustness ---------------------------

RunOutput minimalRun(int exit_code, const std::string& stderr_text) {
  RunOutput run;
  run.exit_code = exit_code;
  run.stdout_text = "safeflow: 0 warning(s), 0 error dependency(ies)\n";
  run.stderr_text = stderr_text;
  run.stats.files = 1;
  return run;
}

TEST(CacheManagerTest, StoreThenLookupReturnsTheDecodedEntry) {
  CacheOptions options;
  options.enabled = true;
  options.dir = freshDir("mgr_basic");
  support::MetricsRegistry registry;
  CacheManager manager(options, &registry);

  manager.store("deadbeefdeadbeef", minimalRun(3, "some stderr\n"));
  const auto hit = manager.lookup({"deadbeefdeadbeef", {}});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->exit_code, 3);
  EXPECT_EQ(hit->stderr_text, "some stderr\n");
  EXPECT_EQ(hit->stdout_text, minimalRun(3, "").stdout_text);
  EXPECT_EQ(hit->stats.files, 1u);
  EXPECT_EQ(registry.counterValue("cache.writes"), 1u);
  EXPECT_EQ(registry.counterValue("cache.hits"), 1u);
  EXPECT_EQ(registry.counterValue("cache.misses"), 0u);
}

TEST(CacheManagerTest, TruncatedEntryIsPurgedAndCounted) {
  CacheOptions options;
  options.enabled = true;
  options.dir = freshDir("mgr_corrupt");
  support::MetricsRegistry registry;
  CacheManager manager(options, &registry);
  manager.store("deadbeefdeadbeef", minimalRun(0, ""));

  // Truncate the entry the way a full disk or a kill -9 mid-copy would.
  const support::DiskCache disk_view({options.dir, 0});
  ASSERT_EQ(::truncate(disk_view.entryPath("deadbeefdeadbeef").c_str(), 5),
            0);

  testing::internal::CaptureStderr();
  EXPECT_FALSE(manager.lookup({"deadbeefdeadbeef", {}}).has_value());
  const std::string diag = testing::internal::GetCapturedStderr();
  EXPECT_NE(diag.find("is corrupt"), std::string::npos);
  EXPECT_NE(diag.find("falling back to cold analysis"), std::string::npos);
  EXPECT_EQ(registry.counterValue("cache.corrupt"), 1u);
  EXPECT_EQ(registry.counterValue("cache.misses"), 1u);
  // The poisoned entry was purged: the next lookup is a plain miss, not
  // another corruption report.
  testing::internal::CaptureStderr();
  EXPECT_FALSE(manager.lookup({"deadbeefdeadbeef", {}}).has_value());
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(registry.counterValue("cache.corrupt"), 1u);
}

TEST(CacheManagerTest, WrongKeyEchoAndVersionMismatchAreCorrupt) {
  CacheOptions options;
  options.enabled = true;
  options.dir = freshDir("mgr_echo");
  support::MetricsRegistry registry;
  CacheManager manager(options, &registry);
  manager.store("aaaaaaaaaaaaaaaa", minimalRun(0, ""));

  // Copy the valid entry's decoded payload under a different key: the
  // storage envelope verifies fine, but the key echoed inside no longer
  // matches, so a (hash-collision-like) wrong hit is refused.
  support::DiskCache disk_view({options.dir, 0});
  const std::optional<std::string> payload =
      disk_view.lookup("aaaaaaaaaaaaaaaa");
  ASSERT_TRUE(payload.has_value());
  ASSERT_TRUE(disk_view.store("bbbbbbbbbbbbbbbb", *payload).ok);

  testing::internal::CaptureStderr();
  EXPECT_FALSE(manager.lookup({"bbbbbbbbbbbbbbbb", {}}).has_value());
  EXPECT_NE(testing::internal::GetCapturedStderr().find("key echo"),
            std::string::npos);
  EXPECT_EQ(registry.counterValue("cache.corrupt"), 1u);
}

TEST(CacheManagerTest, FaultInjectionEnvDisablesTheCache) {
  // Injected faults make runs non-deterministic; caching them would
  // replay a faulted result into healthy runs.
  ASSERT_EQ(::setenv("SAFEFLOW_INJECT_FAULT", "crash@taint", 1), 0);
  CacheOptions options;
  options.enabled = true;
  options.dir = freshDir("mgr_fault");
  support::MetricsRegistry registry;
  const CacheManager manager(options, &registry);
  ASSERT_EQ(::unsetenv("SAFEFLOW_INJECT_FAULT"), 0);
  EXPECT_FALSE(manager.enabled());
}

// --- Header edits never replay a stale report ------------------------

/// The running example's shared-memory set-up and a main whose asserted
/// value is readIt(), which h.h defines. `include`, the line including
/// h.h, goes right before main, or with `last` on the file's last line.
std::string readItProgram(const std::string& include, bool last) {
  std::string text =
      "typedef struct SHM { float control; float position; float angle; "
      "int seq; } SHMData;\n"
      "SHMData *feedback;\n"
      "SHMData *noncoreCtrl;\n"
      "extern int shmget(int key, int size, int flags);\n"
      "extern void *shmat(int shmid, void *addr, int flags);\n"
      "static int readIt(void);\n"
      "/*** SafeFlow Annotation shminit ***/\n"
      "void initComm(void)\n"
      "{\n"
      "  void *shmStart;\n"
      "  shmStart = shmat(shmget(1234, 2 * sizeof(SHMData), 0), 0, 0);\n"
      "  feedback = (SHMData *) shmStart;\n"
      "  noncoreCtrl = feedback + 1;\n"
      "  /*** SafeFlow Annotation assume(shmvar(feedback, sizeof(SHMData))) "
      "***/\n"
      "  /*** SafeFlow Annotation assume(shmvar(noncoreCtrl, "
      "sizeof(SHMData))) ***/\n"
      "  /*** SafeFlow Annotation assume(noncore(feedback)) ***/\n"
      "  /*** SafeFlow Annotation assume(noncore(noncoreCtrl)) ***/\n"
      "}\n";
  if (!last) text += include + "\n";
  text +=
      "int main(void)\n"
      "{\n"
      "  int v;\n"
      "  initComm();\n"
      "  v = readIt();\n"
      "  /*** SafeFlow Annotation assert(safe(v)); ***/\n"
      "  return v;\n"
      "}\n";
  if (last) text += include;
  return text;
}

const char kCleanHeader[] = "static int readIt(void) { return 0; }\n";
/// readIt() now returns an unmonitored non-core value: 1 warning and 1
/// error dependency.
const char kLeakyHeader[] =
    "static int readIt(void) { return feedback->seq; }\n";

// Each case is a way the cache's former textual include scan disagreed
// with the preprocessor about which header a run read, and so replayed a
// clean report after the header the run did read had changed. After
// every header edit a lookup must miss or print exactly what a cold run
// prints.
TEST(CacheManagerTest, HeaderEditsNeverReplayAStaleReport) {
  struct Case {
    const char* name;
    std::string root;
    std::string include;
    bool last;
    /// Copies of h.h, edited in this order.
    std::vector<std::string> headers;
  };
  const Case cases[] = {
      // The lexer keeps a line's start across a comment, so the
      // preprocessor honours this include.
      {"comment before #include", "main.c", "/* layout */ #include \"h.h\"",
       false, {"h.h"}},
      // Run with -I inc: the include resolves beside a/main.c.
      {"#include on the last line", "a/main.c", "#include \"h.h\"", true,
       {"inc/h.h", "a/h.h"}},
  };
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const Case& c = cases[i];
    const std::string dir = freshDir("stale_replay" + std::to_string(i));
    ASSERT_EQ(std::system(("mkdir -p '" + dir + "/a' '" + dir + "/inc'")
                              .c_str()),
              0);
    writeFile(dir + "/" + c.root, readItProgram(c.include, c.last));
    for (const std::string& h : c.headers) {
      writeFile(dir + "/" + h, kCleanHeader);
    }
    const std::vector<std::string> files = {dir + "/" + c.root};
    const std::vector<std::string> include_dirs = {dir + "/inc"};
    CacheOptions options;
    options.enabled = true;
    options.dir = dir + "/cache";
    options.analysis_flags = {"-I", include_dirs[0]};
    {
      support::MetricsRegistry registry;
      CacheManager cache(options, &registry);
      const RunOutput cold = coldRun(files, include_dirs);
      ASSERT_EQ(cold.exit_code, 0) << c.name << ": " << cold.stderr_text;
      cache.store(cache.keyFor(files).hex, cold);
    }
    bool cold_report_changed = false;
    for (const std::string& h : c.headers) {
      writeFile(dir + "/" + h, kLeakyHeader);
      support::MetricsRegistry registry;
      CacheManager cache(options, &registry);
      const std::optional<RunOutput> warm = cache.lookup(cache.keyFor(files));
      const RunOutput cold = coldRun(files, include_dirs);
      cold_report_changed = cold_report_changed || cold.exit_code != 0;
      if (warm.has_value()) {
        EXPECT_EQ(warm->exit_code, cold.exit_code) << c.name << ", " << h;
        EXPECT_EQ(warm->stdout_text, cold.stdout_text) << c.name << ", " << h;
      }
    }
    // Some edit reached the analysis, so a stale replay would show.
    EXPECT_TRUE(cold_report_changed) << c.name;
  }
}

// --- End-to-end through the real supervisor -------------------------

SupervisorOptions supervisedOptions(CacheManager* cache) {
  SupervisorOptions opts;
  opts.worker_exe = SAFEFLOW_EXE;
  opts.worker_timeout_seconds = 60.0;
  opts.cache = cache;
  return opts;
}

TEST(SupervisedCache, WarmRunHitsEveryShardAndSpawnsNoWorkers) {
  const std::vector<std::string> files = {
      kCorpus + "/ip/core/comm.c", kCorpus + "/ip/core/decision.c",
      kCorpus + "/ip/core/safety.c"};
  CacheOptions cache_options;
  cache_options.enabled = true;
  cache_options.dir = freshDir("sup_warm");

  std::string renders[2];
  std::uint64_t hits[2], spawned[2];
  for (int run = 0; run < 2; ++run) {
    support::MetricsRegistry registry;
    CacheManager cache(cache_options, &registry);
    const SupervisedRun result =
        Supervisor(supervisedOptions(&cache), &registry).run(files);
    EXPECT_EQ(result.output.exit_code, 0);
    EXPECT_EQ(result.from_cache, run == 1);
    renders[run] = result.output.stdout_text;
    hits[run] = registry.counterValue("cache.hits");
    spawned[run] = registry.counterValue("supervisor.workers_spawned");
  }
  // One entry covers the whole file set.
  EXPECT_EQ(hits[0], 0u);
  EXPECT_EQ(spawned[0], 1u);
  EXPECT_EQ(hits[1], 1u);     // 100% warm
  EXPECT_EQ(spawned[1], 0u);  // no worker at all
  EXPECT_EQ(renders[0], renders[1]);
}

TEST(SupervisedCache, EditingOneTuMissesExactlyThatShard) {
  // Two programs (file sets) share one cache dir. Editing a file of one
  // misses exactly that program's entry; the other still hits.
  const std::string dir = freshDir("sup_edit");
  ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
  const std::string one = dir + "/one.c";
  const std::string two = dir + "/two.c";
  const std::string other = dir + "/other.c";
  writeFile(one, "int first_unit(void) { return 1; }\n");
  writeFile(two, "int second_unit(void) { return 2; }\n");
  writeFile(other, "int other_unit(void) { return 4; }\n");

  CacheOptions cache_options;
  cache_options.enabled = true;
  cache_options.dir = freshDir("sup_edit_cache");
  const auto runBoth = [&](support::MetricsRegistry* registry) {
    CacheManager cache(cache_options, registry);
    Supervisor sup(supervisedOptions(&cache), registry);
    return std::vector<bool>{sup.run({one, two}).from_cache,
                             sup.run({other}).from_cache};
  };
  {
    support::MetricsRegistry registry;
    EXPECT_EQ(runBoth(&registry), (std::vector<bool>{false, false}));
    EXPECT_EQ(registry.counterValue("cache.writes"), 2u);
  }
  writeFile(one, "int first_unit(void) { return 3; }\n");
  {
    support::MetricsRegistry registry;
    EXPECT_EQ(runBoth(&registry), (std::vector<bool>{false, true}));
    EXPECT_EQ(registry.counterValue("cache.misses"), 1u);
    EXPECT_EQ(registry.counterValue("cache.hits"), 1u);
    EXPECT_EQ(registry.counterValue("supervisor.workers_spawned"), 1u);
  }
}

TEST(SupervisedCache, HeaderEditMissesAndRunsOneWorker) {
  // The worker's envelope carries what it read and the supervisor stores
  // that with the run, so editing a header between runs misses.
  const std::string dir = freshDir("sup_header");
  ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
  const std::vector<std::string> files = {dir + "/main.c"};
  writeFile(files[0], readItProgram("/* layout */ #include \"h.h\"", false));
  writeFile(dir + "/h.h", kCleanHeader);

  CacheOptions cache_options;
  cache_options.enabled = true;
  cache_options.dir = freshDir("sup_header_cache");
  const auto run = [&](support::MetricsRegistry* registry) {
    CacheManager cache(cache_options, registry);
    return Supervisor(supervisedOptions(&cache), registry).run(files);
  };
  {
    support::MetricsRegistry registry;
    EXPECT_EQ(run(&registry).output.exit_code, 0);
  }
  writeFile(dir + "/h.h", kLeakyHeader);
  support::MetricsRegistry cold_registry;
  const SupervisedRun cold =
      Supervisor(supervisedOptions(nullptr), &cold_registry).run(files);
  EXPECT_EQ(cold.output.exit_code, 1);
  {
    support::MetricsRegistry registry;
    const SupervisedRun edited = run(&registry);
    EXPECT_FALSE(edited.from_cache);
    EXPECT_EQ(registry.counterValue("cache.misses"), 1u);
    EXPECT_EQ(registry.counterValue("cache.corrupt"), 0u);
    EXPECT_EQ(registry.counterValue("supervisor.workers_spawned"), 1u);
    EXPECT_EQ(edited.output.exit_code, cold.output.exit_code);
    EXPECT_EQ(edited.output.stdout_text, cold.output.stdout_text);
  }
  {
    // The edited run stored over the stale entry.
    support::MetricsRegistry registry;
    const SupervisedRun again = run(&registry);
    EXPECT_TRUE(again.from_cache);
    EXPECT_EQ(again.output.stdout_text, cold.output.stdout_text);
  }
}

TEST(SupervisedCache, CorruptShardEntryFallsBackToColdAnalysis) {
  const std::vector<std::string> files = {kCorpus +
                                          "/running_example/core.c"};
  CacheOptions cache_options;
  cache_options.enabled = true;
  cache_options.dir = freshDir("sup_corrupt");

  std::string cold_render;
  {
    support::MetricsRegistry registry;
    CacheManager cache(cache_options, &registry);
    cold_render = Supervisor(supervisedOptions(&cache), &registry)
                      .run(files)
                      .output.stdout_text;
  }
  // Truncate the single entry on disk.
  const std::string cmd = "for f in '" + cache_options.dir +
                          "'/*.json; do truncate -s 5 \"$f\"; done";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  {
    support::MetricsRegistry registry;
    testing::internal::CaptureStderr();
    CacheManager cache(cache_options, &registry);
    const SupervisedRun run =
        Supervisor(supervisedOptions(&cache), &registry).run(files);
    EXPECT_NE(testing::internal::GetCapturedStderr().find("is corrupt"),
              std::string::npos);
    // Cold fallback, same result.
    EXPECT_EQ(run.output.stdout_text, cold_render);
    EXPECT_EQ(registry.counterValue("cache.corrupt"), 1u);
    EXPECT_EQ(registry.counterValue("supervisor.workers_spawned"), 1u);
    EXPECT_EQ(registry.counterValue("cache.writes"), 1u);  // re-stored
  }
}

TEST(SupervisedCache, VersionFlagPrintsTheAnalyzerVersion) {
  const std::string cmd = std::string(SAFEFLOW_EXE) + " --version";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  char buffer[128] = {};
  ASSERT_NE(::fgets(buffer, sizeof buffer, pipe), nullptr);
  EXPECT_EQ(::pclose(pipe), 0);
  EXPECT_EQ(std::string(buffer),
            std::string("safeflow ") + kAnalyzerVersion + "\n");
}

}  // namespace

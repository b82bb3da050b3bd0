// Tests for the I/O fault-injection shim (SAFEFLOW_INJECT_IO) and the
// crash-consistency machinery built on it: spec parsing and one-shot
// semantics, the hardened write helpers, DiskCache envelope
// verification under torn renames / ENOSPC / fsync failures, the cache
// manager's recovery sweep, and export-failure behavior of
// --metrics-out / --trace (diagnose + classified exit, never a
// truncated artifact).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "safeflow/cache_manager.h"
#include "support/cache.h"
#include "support/io_faults.h"
#include "support/metrics.h"
#include "support/subprocess.h"

namespace {

using namespace safeflow;
namespace io = safeflow::support::io;

const std::string kCorpus = SAFEFLOW_CORPUS_DIR;

std::string freshDir(const std::string& leaf) {
  const std::string dir = ::testing::TempDir() + "/" + leaf + "." +
                          std::to_string(::getpid());
  std::string cmd = "rm -rf '" + dir + "' && mkdir -p '" + dir + "'";
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  return dir;
}

std::string readFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

void writeTextFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out << contents;
}

/// RAII disarm so a failed assertion can never leak an armed fault into
/// a later test running in the same process.
struct DisarmOnExit {
  ~DisarmOnExit() { io::armIoFaultInjection(""); }
};

// -- spec parsing and arming ------------------------------------------------

TEST(IoFaultSpec, ParsesWellFormedSpecs) {
  DisarmOnExit disarm;
  EXPECT_TRUE(io::armIoFaultInjection("enospc@cache.store"));
  EXPECT_TRUE(io::ioFaultInjectionArmed());
  EXPECT_TRUE(io::armIoFaultInjection("torn_rename@cache.store:3"));
  EXPECT_TRUE(io::ioFaultInjectionArmed());
  EXPECT_TRUE(io::armIoFaultInjection("fsync_fail@journal.append"));
  EXPECT_TRUE(io::armIoFaultInjection("short_write@metrics.out"));
  EXPECT_TRUE(io::armIoFaultInjection("eio@trace.out:2"));
  // Empty spec disarms.
  EXPECT_TRUE(io::armIoFaultInjection(""));
  EXPECT_FALSE(io::ioFaultInjectionArmed());
}

TEST(IoFaultSpec, MalformedSpecsStayInert) {
  DisarmOnExit disarm;
  for (const char* bad :
       {"nonsense", "enospc", "enospc@", "unknown@cache.store",
        "enospc@cache.store:0", "enospc@cache.store:x"}) {
    EXPECT_FALSE(io::armIoFaultInjection(bad)) << bad;
    EXPECT_FALSE(io::ioFaultInjectionArmed()) << bad;
  }
}

// -- hardened helper semantics ----------------------------------------------

TEST(IoFaultHelpers, WriteFailsOnceAtItsSiteThenDisarms) {
  DisarmOnExit disarm;
  const std::string dir = freshDir("io_write_once");
  const std::string path = dir + "/target";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
  ASSERT_GE(fd, 0);

  ASSERT_TRUE(io::armIoFaultInjection("eio@metrics.out"));
  // A different site passes through untouched and leaves the fault armed.
  EXPECT_TRUE(io::writeAll(fd, "other-site", "trace.out").ok);
  EXPECT_TRUE(io::ioFaultInjectionArmed());

  const io::IoStatus failed = io::writeAll(fd, "0123456789", "metrics.out");
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(failed.error_errno, EIO);
  EXPECT_NE(failed.message.find("injected"), std::string::npos);
  // One-shot: consumed, and the retry sees a healthy filesystem.
  EXPECT_FALSE(io::ioFaultInjectionArmed());
  EXPECT_TRUE(io::writeAll(fd, "retry", "metrics.out").ok);
  ::close(fd);
}

TEST(IoFaultHelpers, NthCountsMatchingOperationsOnly) {
  DisarmOnExit disarm;
  const std::string dir = freshDir("io_nth");
  const int fd =
      ::open((dir + "/t").c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(io::armIoFaultInjection("enospc@stats.out:2"));
  EXPECT_TRUE(io::writeAll(fd, "first", "stats.out").ok);
  const io::IoStatus second = io::writeAll(fd, "second", "stats.out");
  EXPECT_FALSE(second.ok);
  EXPECT_EQ(second.error_errno, ENOSPC);
  ::close(fd);
}

TEST(IoFaultHelpers, ShortWriteIsInvisibleToCallers) {
  DisarmOnExit disarm;
  const std::string dir = freshDir("io_short");
  const std::string path = dir + "/short";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(io::armIoFaultInjection("short_write@metrics.out"));
  const std::string payload(1000, 'x');
  EXPECT_TRUE(io::writeAll(fd, payload, "metrics.out").ok);
  ::close(fd);
  // The partial-write loop must have finished the job on its own.
  EXPECT_EQ(readFileOrEmpty(path), payload);
}

TEST(IoFaultHelpers, WriteFileNeverLeavesATruncatedArtifact) {
  DisarmOnExit disarm;
  const std::string dir = freshDir("io_writefile");
  const std::string path = dir + "/doc.json";
  ASSERT_TRUE(io::armIoFaultInjection("enospc@metrics.out"));
  const io::IoStatus status =
      io::writeFile(path, std::string(4096, 'm'), "metrics.out");
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("cannot write"), std::string::npos);
  // The half-written file was unlinked: absent, not silently truncated.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
  // Healthy retry succeeds and the document is complete.
  EXPECT_TRUE(io::writeFile(path, "complete", "metrics.out").ok);
  EXPECT_EQ(readFileOrEmpty(path), "complete");
}

// A failed write to something other than a regular file (a device such as
// /dev/full, here a FIFO) reports the failure and leaves the node alone.
TEST(IoFaultHelpers, WriteFileKeepsANonRegularTarget) {
  DisarmOnExit disarm;
  const std::string dir = freshDir("io_writefile_fifo");
  const std::string path = dir + "/pipe";
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  const int reader = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(reader, 0);
  ASSERT_TRUE(io::armIoFaultInjection("enospc@dot.out"));
  EXPECT_FALSE(io::writeFile(path, std::string(64, 'd'), "dot.out").ok);
  ::close(reader);
  struct stat st{};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  EXPECT_TRUE(S_ISFIFO(st.st_mode));
}

// -- DiskCache crash consistency under injected faults ----------------------

TEST(IoFaultCache, TornRenameIsDetectedPurgedAndRecoverable) {
  DisarmOnExit disarm;
  support::DiskCache cache({freshDir("io_torn"), 0});
  ASSERT_TRUE(cache.ensureDir());
  const std::string payload(2048, 'p');

  ASSERT_TRUE(io::armIoFaultInjection("torn_rename@cache.store"));
  const auto stored = cache.store("aaaaaaaaaaaaaaaa", payload);
  EXPECT_FALSE(stored.ok);
  EXPECT_NE(stored.error.find("torn"), std::string::npos);

  // The torn bytes landed under the real key, but the checksummed
  // envelope refuses to serve them.
  const auto checked = cache.lookupChecked("aaaaaaaaaaaaaaaa");
  EXPECT_EQ(checked.status, support::DiskCache::LookupStatus::kTorn);
  EXPECT_FALSE(cache.lookup("aaaaaaaaaaaaaaaa").has_value());

  // lookup() purged it; a healthy re-store round-trips.
  EXPECT_TRUE(cache.store("aaaaaaaaaaaaaaaa", payload).ok);
  ASSERT_TRUE(cache.lookup("aaaaaaaaaaaaaaaa").has_value());
  EXPECT_EQ(*cache.lookup("aaaaaaaaaaaaaaaa"), payload);
}

TEST(IoFaultCache, EnospcAndFsyncFailStoreNothing) {
  DisarmOnExit disarm;
  support::DiskCache cache({freshDir("io_enospc"), 0});
  ASSERT_TRUE(cache.ensureDir());

  ASSERT_TRUE(io::armIoFaultInjection("enospc@cache.store"));
  EXPECT_FALSE(cache.store("cccccccccccccccc", "payload").ok);
  EXPECT_FALSE(cache.lookup("cccccccccccccccc").has_value());
  EXPECT_EQ(cache.totalBytes(), 0u);  // the partial temp was unlinked

  ASSERT_TRUE(io::armIoFaultInjection("fsync_fail@cache.store"));
  EXPECT_FALSE(cache.store("dddddddddddddddd", "payload").ok);
  EXPECT_FALSE(cache.lookup("dddddddddddddddd").has_value());

  // Both one-shot faults consumed: the store path is healthy again.
  EXPECT_TRUE(cache.store("eeeeeeeeeeeeeeee", "payload").ok);
  EXPECT_TRUE(cache.lookup("eeeeeeeeeeeeeeee").has_value());
}

TEST(IoFaultCache, VerifyEntriesSweepsTornEntriesAndReportsPaths) {
  DisarmOnExit disarm;
  support::DiskCache cache({freshDir("io_sweep"), 0});
  ASSERT_TRUE(cache.ensureDir());
  ASSERT_TRUE(cache.store("aaaaaaaaaaaaaaaa", std::string(512, 'a')).ok);
  ASSERT_TRUE(cache.store("bbbbbbbbbbbbbbbb", std::string(512, 'b')).ok);
  // Tear one entry the way a power cut would: drop its tail.
  ASSERT_EQ(::truncate(cache.entryPath("aaaaaaaaaaaaaaaa").c_str(), 100),
            0);

  std::vector<std::string> purged;
  EXPECT_EQ(cache.verifyEntries(&purged), 1u);
  ASSERT_EQ(purged.size(), 1u);
  EXPECT_EQ(purged[0], cache.entryPath("aaaaaaaaaaaaaaaa"));
  EXPECT_FALSE(cache.lookup("aaaaaaaaaaaaaaaa").has_value());
  EXPECT_TRUE(cache.lookup("bbbbbbbbbbbbbbbb").has_value());
  // Idempotent: a second sweep finds a clean directory.
  EXPECT_EQ(cache.verifyEntries(), 0u);
}

TEST(IoFaultCache, ManagerCountsTornEntriesPurgedOnOpen) {
  DisarmOnExit disarm;
  const std::string dir = freshDir("io_mgr_torn");
  support::DiskCache disk({dir, 0});
  ASSERT_TRUE(disk.ensureDir());
  ASSERT_TRUE(disk.store("aaaaaaaaaaaaaaaa", std::string(512, 'x')).ok);
  ASSERT_EQ(::truncate(disk.entryPath("aaaaaaaaaaaaaaaa").c_str(), 40), 0);

  CacheOptions options;
  options.enabled = true;
  options.dir = dir;
  support::MetricsRegistry metrics;
  // The directory owner sweeps once when it opens the cache.
  CacheManager manager(options, &metrics);
  manager.recover();
  EXPECT_EQ(metrics.counterValue("cache.torn_entries_purged"), 1u);
  EXPECT_FALSE(disk.lookup("aaaaaaaaaaaaaaaa").has_value());
}

// -- export failures -------------------------------------------------------

support::SubprocessResult runCli(
    const std::vector<std::string>& args,
    const std::vector<std::pair<std::string, std::string>>& env = {}) {
  std::vector<std::string> argv = {SAFEFLOW_EXE};
  argv.insert(argv.end(), args.begin(), args.end());
  support::SubprocessOptions opts;
  opts.timeout_seconds = 120.0;
  opts.extra_env = env;
  return support::runSubprocess(argv, opts);
}

TEST(IoFaultExports, MetricsOutEnospcFailsLoudlyWithNoArtifact) {
  const std::string dir = freshDir("io_metrics_out");
  const std::string tu = dir + "/clean.c";
  writeTextFile(tu, "int main(void) { return 0; }\n");
  const std::string metrics_path = dir + "/metrics.prom";

  // Control: the export works and the run is clean.
  const auto ok = runCli({tu, "--metrics-out", metrics_path});
  ASSERT_TRUE(ok.exitedWith(0)) << ok.err_text;
  EXPECT_EQ(::access(metrics_path.c_str(), F_OK), 0);
  ASSERT_EQ(::unlink(metrics_path.c_str()), 0);

  const auto failed =
      runCli({tu, "--metrics-out", metrics_path},
             {{"SAFEFLOW_INJECT_IO", "enospc@metrics.out"}});
  ASSERT_EQ(failed.status, support::SubprocessResult::Status::kExited);
  EXPECT_EQ(failed.exit_code, 2);  // usage/environment error, not "clean"
  EXPECT_NE(failed.err_text.find("cannot write"), std::string::npos)
      << failed.err_text;
  // No truncated-but-silent artifact.
  EXPECT_NE(::access(metrics_path.c_str(), F_OK), 0);
}

// --dot, in process and from a crash-isolated worker: exit 2, one
// diagnostic, no partial graph.
TEST(IoFaultExports, DotOutEnospcFailsLoudlyWithNoArtifact) {
  const std::string dir = freshDir("io_dot_out");
  const std::string tu = dir + "/clean.c";
  writeTextFile(tu, "int main(void) { return 0; }\n");
  const std::string dot_path = dir + "/flow.dot";

  for (const bool isolate : {false, true}) {
    SCOPED_TRACE(isolate ? "--isolate" : "in process");
    std::vector<std::string> args = {tu, "--dot", dot_path};
    if (isolate) args.emplace_back("--isolate");
    const auto ok = runCli(args);
    ASSERT_TRUE(ok.exitedWith(0)) << ok.err_text;
    EXPECT_NE(ok.out_text.find("value-flow graph written to"),
              std::string::npos);
    EXPECT_EQ(::access(dot_path.c_str(), F_OK), 0);
    ASSERT_EQ(::unlink(dot_path.c_str()), 0);

    const auto failed =
        runCli(args, {{"SAFEFLOW_INJECT_IO", "enospc@dot.out"}});
    ASSERT_EQ(failed.status, support::SubprocessResult::Status::kExited);
    EXPECT_EQ(failed.exit_code, 2);
    EXPECT_EQ(failed.err_text, "safeflow: cannot write '" + dot_path +
                                   "': write failed at site 'dot.out' "
                                   "(injected): No space left on device\n");
    EXPECT_EQ(failed.out_text.find("value-flow graph written to"),
              std::string::npos);
    EXPECT_NE(::access(dot_path.c_str(), F_OK), 0);
  }
}

TEST(IoFaultExports, TraceOutEioFailsLoudlyWithNoArtifact) {
  const std::string dir = freshDir("io_trace_out");
  const std::string tu = dir + "/clean.c";
  writeTextFile(tu, "int main(void) { return 0; }\n");
  const std::string trace_path = dir + "/trace.json";

  const auto failed = runCli({tu, "--trace", trace_path},
                             {{"SAFEFLOW_INJECT_IO", "eio@trace.out"}});
  ASSERT_EQ(failed.status, support::SubprocessResult::Status::kExited);
  EXPECT_EQ(failed.exit_code, 2);
  EXPECT_NE(failed.err_text.find("cannot write"), std::string::npos)
      << failed.err_text;
  EXPECT_NE(::access(trace_path.c_str(), F_OK), 0);

  // Control afterward: same command, healthy filesystem, real artifact.
  const auto ok = runCli({tu, "--trace", trace_path});
  ASSERT_TRUE(ok.exitedWith(0)) << ok.err_text;
  EXPECT_EQ(::access(trace_path.c_str(), F_OK), 0);
}

}  // namespace

#include "process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <thread>

#include "support/unix_socket.h"

extern char** environ;

namespace verdictbench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// posix_spawn with stdout on `out_fd` (or /dev/null when -1) and stderr
/// on /dev/null. Returns the pid, or -1.
pid_t spawn(const std::vector<std::string>& argv, int out_fd) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (out_fd >= 0) {
    posix_spawn_file_actions_adddup2(&actions, out_fd, STDOUT_FILENO);
  } else {
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
  }
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  return rc == 0 ? pid : -1;
}

/// Spawns `argv` (argv[0] an absolute path) with stdout captured and
/// stderr discarded, waits for it, and kills it after `timeout_s`.
ChildRun runChild(const std::vector<std::string>& argv, double timeout_s) {
  ChildRun run;
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return run;
  const Clock::time_point t0 = Clock::now();
  const pid_t pid = spawn(argv, fds[1]);
  ::close(fds[1]);
  if (pid < 0) {
    ::close(fds[0]);
    return run;
  }
  char buf[65536];
  for (;;) {
    const double left = timeout_s - since(t0);
    if (left <= 0.0) {
      run.timed_out = true;
      ::kill(pid, SIGKILL);
      break;
    }
    struct pollfd p = {fds[0], POLLIN, 0};
    const int rc = ::poll(&p, 1, static_cast<int>(left * 1000.0) + 1);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) continue;
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    run.out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  struct rusage ru {};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  run.seconds = since(t0);
  run.max_rss_kb = static_cast<std::uint64_t>(ru.ru_maxrss);
  run.exited = !run.timed_out && WIFEXITED(status);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

bool readAll(int fd, void* data, std::size_t n) {
  auto* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t got = ::read(fd, p, n);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

bool writeAll(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t put = ::write(fd, p, n);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

bool writeString(int fd, const std::string& s) {
  const std::uint64_t n = s.size();
  return writeAll(fd, &n, sizeof n) && writeAll(fd, s.data(), s.size());
}

bool readString(int fd, std::string* s) {
  std::uint64_t n = 0;
  if (!readAll(fd, &n, sizeof n)) return false;
  s->resize(n);
  return readAll(fd, s->data(), n);
}

/// The helper's loop: one request (argc, args, timeout) in, one ChildRun
/// out, until the client closes the pipe.
[[noreturn]] void helperMain(int in, int out) {
  for (;;) {
    std::uint64_t argc = 0;
    if (!readAll(in, &argc, sizeof argc)) ::_exit(0);
    std::vector<std::string> argv(argc);
    for (std::string& a : argv) {
      if (!readString(in, &a)) ::_exit(1);
    }
    double timeout_s = 0.0;
    if (!readAll(in, &timeout_s, sizeof timeout_s)) ::_exit(1);
    const ChildRun r = runChild(argv, timeout_s);
    const std::int64_t fields[4] = {r.exited, r.exit_code, r.timed_out,
                                    static_cast<std::int64_t>(r.max_rss_kb)};
    if (!writeAll(out, fields, sizeof fields) ||
        !writeAll(out, &r.seconds, sizeof r.seconds) ||
        !writeString(out, r.out)) {
      ::_exit(1);
    }
  }
}

}  // namespace

Spawner::~Spawner() {
  if (pid_ < 0) return;
  ::close(to_helper_);
  ::close(from_helper_);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

bool Spawner::start() {
  int down[2], up[2];
  if (::pipe2(down, O_CLOEXEC) != 0) return false;
  if (::pipe2(up, O_CLOEXEC) != 0) {
    ::close(down[0]);
    ::close(down[1]);
    return false;
  }
  pid_ = ::fork();
  if (pid_ == 0) {
    ::close(down[1]);
    ::close(up[0]);
    helperMain(down[0], up[1]);
  }
  ::close(down[0]);
  ::close(up[1]);
  to_helper_ = down[1];
  from_helper_ = up[0];
  if (pid_ < 0) {
    ::close(to_helper_);
    ::close(from_helper_);
    return false;
  }
  return true;
}

ChildRun Spawner::run(const std::vector<std::string>& argv, double timeout_s) {
  ChildRun r;
  const std::uint64_t argc = argv.size();
  bool ok = writeAll(to_helper_, &argc, sizeof argc);
  for (const std::string& a : argv) ok = ok && writeString(to_helper_, a);
  ok = ok && writeAll(to_helper_, &timeout_s, sizeof timeout_s);
  std::int64_t fields[4] = {0, -1, 0, 0};
  ok = ok && readAll(from_helper_, fields, sizeof fields) &&
       readAll(from_helper_, &r.seconds, sizeof r.seconds) &&
       readString(from_helper_, &r.out);
  if (!ok) return ChildRun{};
  r.exited = fields[0] != 0;
  r.exit_code = static_cast<int>(fields[1]);
  r.timed_out = fields[2] != 0;
  r.max_rss_kb = static_cast<std::uint64_t>(fields[3]);
  return r;
}

bool daemonExchange(const std::string& socket, const std::string& request,
                    double timeout_s, std::string* response,
                    std::string* error) {
  const int fd = safeflow::support::connectUnixSocket(socket, error);
  if (fd < 0) return false;
  bool ok = safeflow::support::writeAll(fd, request + "\n");
  if (!ok) {
    *error = "request write failed";
  } else {
    const auto io = safeflow::support::readLine(fd, response, 64u << 20,
                                                timeout_s);
    ok = io == safeflow::support::LineIo::kOk;
    if (!ok) *error = "no complete response line";
  }
  ::close(fd);
  return ok;
}

DaemonProcess::~DaemonProcess() { kill(); }

bool DaemonProcess::start(const std::string& exe, const std::string& socket,
                          const std::string& cache_dir, double timeout_s,
                          double* ready_s, std::string* error) {
  socket_ = socket;
  const Clock::time_point t0 = Clock::now();
  pid_ = spawn({exe, "--socket", socket, "--cache-dir", cache_dir, "--jobs",
                "2"},
               -1);
  if (pid_ < 0) {
    *error = "cannot spawn " + exe;
    return false;
  }
  const std::string status = "{\"safeflowd\": 1, \"op\": \"status\"}";
  for (;;) {
    std::string response, ignored;
    if (daemonExchange(socket, status, timeout_s, &response, &ignored) &&
        response.find("\"status\": \"ok\"") != std::string::npos) {
      *ready_s = since(t0);
      return true;
    }
    int wstatus = 0;
    if (::waitpid(pid_, &wstatus, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "safeflowd exited during start-up";
      return false;
    }
    if (since(t0) > timeout_s) {
      *error = "safeflowd did not answer status";
      kill();
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

void DaemonProcess::shutdown() {
  if (pid_ < 0) return;
  std::string response, error;
  daemonExchange(socket_, "{\"safeflowd\": 1, \"op\": \"shutdown\"}", 10.0,
                 &response, &error);
  int status = 0;
  for (int i = 0; i < 1000; ++i) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill();
}

void DaemonProcess::kill() {
  if (pid_ < 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  ::unlink(socket_.c_str());
}

}  // namespace verdictbench

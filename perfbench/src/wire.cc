#include "wire.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "net/protocol.h"
#include "net/socket.h"

namespace perfbench {

using adarts::Result;
using adarts::Status;
using adarts::StatusCode;
namespace net = adarts::net;

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

Result<net::Socket> Connect(std::uint16_t port) {
  ADARTS_ASSIGN_OR_RETURN(net::Socket sock, net::ConnectTcp("127.0.0.1", port));
  ADARTS_RETURN_NOT_OK(sock.SetReceiveTimeout(30.0));
  return sock;
}

/// One blocking request/response exchange on a fresh connection.
Result<net::Response> RoundTrip(std::uint16_t port,
                                const net::Request& request) {
  ADARTS_ASSIGN_OR_RETURN(net::Socket sock, Connect(port));
  ADARTS_RETURN_NOT_OK(net::WriteFrame(sock, net::EncodeRequest(request)));
  ADARTS_ASSIGN_OR_RETURN(std::string frame, net::ReadFrame(sock));
  ADARTS_ASSIGN_OR_RETURN(net::Response response, net::DecodeResponse(frame));
  if (response.id != request.id || response.type != request.type) {
    return Status::Internal("reply does not match its request");
  }
  return response;
}

/// Patches the little-endian id (body bytes 1..8) of an encoded request.
void PatchId(std::string* body, std::uint64_t id) {
  for (int b = 0; b < 8; ++b) {
    (*body)[1 + b] = static_cast<char>((id >> (8 * b)) & 0xff);
  }
}

}  // namespace

Result<std::unique_ptr<Daemon>> Daemon::Start(const std::string& binary,
                                              const std::string& model,
                                              const std::string& workdir) {
  const std::string port_file = workdir + "/daemon.port";
  const std::string log_file = workdir + "/daemon.log";
  ::unlink(port_file.c_str());
  std::vector<std::string> args = {binary,      "--model",     model,
                                   "--port",    "0",           "--port-file",
                                   port_file,   "--workers",   "2",
                                   "--queue",   "64"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int log_fd =
      ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) return Status::Internal("cannot open " + log_file);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  std::unique_ptr<Daemon> daemon(new Daemon(pid));
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(60);
  while (Clock::now() < give_up) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      daemon->pid_ = -1;
      return Status::Internal("adarts_serve exited during start-up; see " +
                              log_file);
    }
    std::ifstream in(port_file);
    int port = 0;
    if (in >> port && port > 0 && port <= 65535) {
      daemon->port_ = static_cast<std::uint16_t>(port);
      return daemon;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return Status::DeadlineExceeded("adarts_serve did not start within 60 s");
}

Daemon::~Daemon() { (void)Stop(); }

Result<double> Daemon::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      if (fields >> kb) return kb / 1024.0;
    }
  }
  return Status::Internal("no VmHWM for the daemon");
}

Status Daemon::Stop() {
  if (pid_ < 0) return Status::OK();
  ::kill(pid_, SIGTERM);
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(20);
  int status = 0;
  bool reaped = false;
  while (Clock::now() < give_up) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      reaped = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!reaped) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  if (!reaped || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("adarts_serve did not drain cleanly");
  }
  return Status::OK();
}

Result<PhaseResult> RunPhase(std::uint16_t port,
                             const std::vector<std::string>& bodies,
                             const PhaseSpec& spec) {
  if (bodies.empty() || spec.seconds <= 0.0 ||
      (spec.open_loop ? spec.rate <= 0.0 : spec.outstanding == 0)) {
    return Status::InvalidArgument("bad phase spec");
  }
  ADARTS_ASSIGN_OR_RETURN(net::Socket sock, Connect(port));
  pollfd fd{sock.fd(), POLLIN, 0};

  struct InFlight {
    Clock::time_point due;
    std::size_t pool_index;
  };
  std::unordered_map<std::uint64_t, InFlight> in_flight;
  PhaseResult out;
  const std::size_t total =
      spec.open_loop ? static_cast<std::size_t>(spec.rate * spec.seconds) : 0;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(spec.seconds));
  const auto due_of = [&](std::uint64_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(i) / spec.rate));
  };
  std::uint64_t next = 0;
  std::string body;
  const auto send = [&](Clock::time_point due) -> Status {
    const std::size_t k = next % bodies.size();
    body = bodies[k];
    PatchId(&body, next);
    const Clock::time_point now = Clock::now();
    if (spec.open_loop) out.late_ms.push_back(MsBetween(due, now));
    // Closed loop times from the actual send: nothing was due earlier.
    in_flight[next] = {spec.open_loop ? due : now, k};
    ADARTS_RETURN_NOT_OK(net::WriteFrame(sock, body));
    ++next;
    ++out.sent;
    return Status::OK();
  };
  const auto more_to_send = [&](Clock::time_point now) {
    return spec.open_loop ? next < total : now < end;
  };

  if (!spec.open_loop) {
    for (std::size_t k = 0; k < spec.outstanding; ++k) {
      ADARTS_RETURN_NOT_OK(send(start));
    }
  }
  Clock::time_point grace = Clock::time_point::max();
  for (;;) {
    Clock::time_point now = Clock::now();
    if (spec.open_loop && next < total && now >= due_of(next)) {
      ADARTS_RETURN_NOT_OK(send(due_of(next)));
      continue;
    }
    if (!more_to_send(now)) {
      if (in_flight.empty()) break;
      if (grace == Clock::time_point::max()) {
        grace = now + std::chrono::seconds(10);
      }
      if (now >= grace) {
        out.lost = in_flight.size();
        break;
      }
    }
    const Clock::time_point wake =
        spec.open_loop && next < total ? due_of(next)
        : more_to_send(now)            ? end
                                       : grace;
    const auto wait_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             wake - now)
                             .count();
    timespec timeout{};
    if (wait_ns > 0) {
      timeout.tv_sec = static_cast<time_t>(wait_ns / 1000000000);
      timeout.tv_nsec = static_cast<long>(wait_ns % 1000000000);
    }
    const int ready = ::ppoll(&fd, 1, &timeout, nullptr);
    if (ready < 0 && errno != EINTR) return Status::Internal("ppoll failed");
    if (ready > 0 && (fd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      ADARTS_ASSIGN_OR_RETURN(std::string frame, net::ReadFrame(sock));
      const Clock::time_point arrived = Clock::now();
      ADARTS_ASSIGN_OR_RETURN(net::Response response,
                              net::DecodeResponse(frame));
      const auto it = in_flight.find(response.id);
      if (it == in_flight.end()) {
        return Status::Internal("reply for an unknown request id");
      }
      const InFlight sent = it->second;
      in_flight.erase(it);
      if (response.code == StatusCode::kOk && response.algorithms.size() == 1) {
        ++out.ok;
        out.latency_ms.push_back(MsBetween(sent.due, arrived));
        out.served.push_back(
            {sent.pool_index, response.engine_version, response.algorithms[0]});
      } else if (response.code == StatusCode::kUnavailable) {
        ++out.shed;
      } else if (response.code == StatusCode::kDeadlineExceeded) {
        ++out.deadline_exceeded;
      } else {
        ++out.errors;
      }
      if (arrived < end) {
        out.arrival_s.push_back(
            std::chrono::duration<double>(arrived - start).count());
        if (!spec.open_loop) ADARTS_RETURN_NOT_OK(send(arrived));
      }
    }
  }
  out.seconds = spec.seconds;
  return out;
}

Result<adarts::json::JsonValue> ScrapeStats(std::uint16_t port) {
  net::Request request;
  request.type = net::MessageType::kStats;
  request.id = 1;
  ADARTS_ASSIGN_OR_RETURN(net::Response response, RoundTrip(port, request));
  if (!response.ok()) return Status(response.code, response.message);
  return adarts::json::ParseJson(response.text);
}

Result<std::uint64_t> Reload(std::uint16_t port, const std::string& path) {
  net::Request request;
  request.type = net::MessageType::kReload;
  request.id = 1;
  request.text = path;
  ADARTS_ASSIGN_OR_RETURN(net::Response response, RoundTrip(port, request));
  if (!response.ok()) return Status(response.code, response.message);
  return response.engine_version;
}

}  // namespace perfbench

#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace perfbench {

/// One `adarts_serve` process (2 workers, admission queue 64) started from
/// the built binary. The daemon's output goes to `<workdir>/daemon.log`; it
/// dies with the benchmark (parent death signal) and is stopped and reaped
/// by the destructor at the latest.
class Daemon {
 public:
  /// Starts the daemon on `model` and waits until it has written its port
  /// file.
  static adarts::Result<std::unique_ptr<Daemon>> Start(
      const std::string& binary, const std::string& model,
      const std::string& workdir);

  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return port_; }

  /// The daemon's resident-set high-water mark (VmHWM), in MiB.
  adarts::Result<double> PeakRssMb() const;

  /// SIGTERM, then waits for the graceful drain (SIGKILL after 20 s). Fails
  /// when the daemon exits other than with status 0. Idempotent.
  adarts::Status Stop();

 private:
  explicit Daemon(pid_t pid) : pid_(pid) {}
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// How one traffic phase drives the daemon.
struct PhaseSpec {
  /// Open loop: request i is due at start + i / rate, whatever the replies
  /// do. Closed loop: `outstanding` requests are always in flight; each
  /// reply releases the next request.
  bool open_loop = true;
  double rate = 0.0;
  std::size_t outstanding = 0;
  double seconds = 0.0;
};

/// One answered recommend request, kept for the output checks.
struct Served {
  std::size_t pool_index = 0;
  std::uint64_t engine_version = 0;
  std::string algorithm;
};

/// What a phase measured. Latency runs from the request's due time (open
/// loop) or its send (closed loop) to the arrival of its reply; only ok
/// replies have a latency, every other outcome counts as a miss of any
/// latency limit.
struct PhaseResult {
  std::vector<double> latency_ms;
  /// Actual send time minus due time (open loop only).
  std::vector<double> late_ms;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t errors = 0;
  std::uint64_t lost = 0;
  /// Arrival of every reply before the phase ended, in seconds from its
  /// start.
  std::vector<double> arrival_s;
  double seconds = 0.0;
  std::vector<Served> served;

  std::uint64_t failed() const {
    return shed + deadline_exceeded + errors + lost;
  }
};

/// Runs one phase of single-series kRecommend traffic against `port`, from
/// the calling thread over one connection.
/// `bodies[k]` is the encoded request for pool series k (its id is patched
/// per send); request i carries pool series i % bodies.size(). Replies
/// missing 10 s after the last send are lost. A connection failure fails the
/// phase.
adarts::Result<PhaseResult> RunPhase(std::uint16_t port,
                                     const std::vector<std::string>& bodies,
                                     const PhaseSpec& spec);

/// One kStats scrape: the daemon's telemetry snapshot, parsed.
adarts::Result<adarts::json::JsonValue> ScrapeStats(std::uint16_t port);

/// A kReload round trip naming `path`; returns the version the daemon
/// reports after the reload.
adarts::Result<std::uint64_t> Reload(std::uint16_t port,
                                     const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_

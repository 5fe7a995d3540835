#ifndef SENTINEL_OBS_MONITOR_SERVER_H_
#define SENTINEL_OBS_MONITOR_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"

namespace sentinel::obs {

/// Embedded HTTP/1.0 endpoint for the live monitoring plane: one listening
/// socket (plain POSIX, no third-party deps), one background accept thread,
/// one request served at a time. That is exactly enough for a Prometheus
/// scraper plus an operator's curl — the handlers themselves (metrics,
/// stats, health) read shared state through the components' own locks, so a
/// slow consumer can never wedge the database.
///
/// Protocol subset: `GET <path>` only; query strings are stripped; every
/// response closes the connection. A client has 2 s from accept to send its
/// request line, so one slow client delays the others by at most that. Unknown paths get 404, non-GET methods
/// 405. Handlers run on the server thread and must be thread-safe against
/// the application threads.
class MonitorServer {
 public:
  struct Response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };
  using Handler = std::function<Response()>;

  struct Options {
    /// Port to bind on 127.0.0.1; 0 picks an ephemeral port (tests).
    int port = 0;
  };

  MonitorServer() = default;
  ~MonitorServer();

  MonitorServer(const MonitorServer&) = delete;
  MonitorServer& operator=(const MonitorServer&) = delete;

  /// Registers a handler for an exact path (e.g. "/metrics"). Must be
  /// called before Start.
  void Route(const std::string& path, Handler handler);

  /// Binds 127.0.0.1:port and starts the accept thread. Fails with
  /// IOError when the port is taken.
  Status Start(const Options& options);
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Bound port (after a successful Start; the ephemeral port when 0 was
  /// requested).
  int port() const { return port_.load(std::memory_order_acquire); }
  std::uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  std::map<std::string, Handler> routes_;
  std::thread thread_;
  int listen_fd_ = -1;
  std::atomic<int> port_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> requests_{0};
};

}  // namespace sentinel::obs

#endif  // SENTINEL_OBS_MONITOR_SERVER_H_

#include "obs/monitor_server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "net/socket_util.h"

namespace sentinel::obs {

namespace {

/// How long a client has, from accept, to deliver its request line.
constexpr std::chrono::seconds kRequestDeadline{2};

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Internal Server Error";
  }
}

void SendAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // peer went away; nothing to do for a monitoring endpoint
    }
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

MonitorServer::~MonitorServer() { Stop(); }

void MonitorServer::Route(const std::string& path, Handler handler) {
  routes_[path] = std::move(handler);
}

Status MonitorServer::Start(const Options& options) {
  if (running()) return Status::InvalidArgument("monitor server already running");
  net::IgnoreSigpipe();
  auto fd = net::ListenTcp(options.port, /*backlog=*/16);
  if (!fd.ok()) return fd.status();
  auto port = net::BoundPort(*fd);
  if (!port.ok()) {
    net::CloseQuietly(*fd);
    return port.status();
  }
  port_.store(*port, std::memory_order_release);
  listen_fd_ = *fd;
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void MonitorServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  net::CloseQuietly(listen_fd_);
  listen_fd_ = -1;
}

void MonitorServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout (re-check stop flag) or EINTR
    const int conn = net::AcceptRetry(listen_fd_);
    if (conn < 0) continue;
    ServeConnection(conn);
    net::CloseQuietly(conn);
  }
}

void MonitorServer::ServeConnection(int fd) {
  // One deadline for the whole request line, counted from accept, and a cap
  // on its size: a client that trickles bytes or never sends CRLF cannot
  // hold the single accept loop (and with it /healthz) past the deadline.
  const auto deadline =
      std::chrono::steady_clock::now() + kRequestDeadline;
  std::string request;
  char buf[1024];
  while (request.size() < 8192 &&
         request.find("\r\n") == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) break;
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) break;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR || errno == EAGAIN ||
                    errno == EWOULDBLOCK)) {
        continue;
      }
      break;
    }
    request.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t line_end = request.find("\r\n");
  if (line_end == std::string::npos) return;
  const std::string line = request.substr(0, line_end);

  Response response;
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    response = {405, "text/plain; charset=utf-8", "malformed request\n"};
  } else if (line.substr(0, sp1) != "GET") {
    response = {405, "text/plain; charset=utf-8", "only GET is supported\n"};
  } else {
    std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::size_t query = path.find('?');
    if (query != std::string::npos) path.resize(query);
    auto it = routes_.find(path);
    if (it == routes_.end()) {
      response = {404, "text/plain; charset=utf-8",
                  "no such endpoint: " + path + "\n"};
    } else {
      requests_.fetch_add(1, std::memory_order_relaxed);
      try {
        response = it->second();
      } catch (const std::exception& e) {
        response = {500, "text/plain; charset=utf-8",
                    std::string("handler failed: ") + e.what() + "\n"};
      }
    }
  }

  std::string head = "HTTP/1.0 " + std::to_string(response.status) + " " +
                     ReasonPhrase(response.status) + "\r\nContent-Type: " +
                     response.content_type + "\r\nContent-Length: " +
                     std::to_string(response.body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  SendAll(fd, head);
  SendAll(fd, response.body);
}

}  // namespace sentinel::obs

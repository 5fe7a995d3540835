#include "net/socket_util.h"

#include <arpa/inet.h>
#include <csignal>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>

#include "common/failpoint.h"

namespace sentinel::net {

namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Returns the fired action for `failpoint` (inert when unarmed or null).
FailPointAction EvalFailpoint(const char* failpoint) {
  if (failpoint == nullptr || !FailPointRegistry::AnyActive()) return {};
  return FailPointRegistry::Instance().Evaluate(failpoint);
}

}  // namespace

void IgnoreSigpipe() {
  // Process-wide, done exactly once: a worker writing to a half-closed
  // session must see EPIPE, not die. MSG_NOSIGNAL covers send(), but
  // explicit ignore also covers any future write()-based path.
  static std::once_flag once;
  std::call_once(once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

Result<int> ListenTcp(int port, int backlog) {
  IgnoreSigpipe();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError(Errno("socket"));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err =
        Errno(("bind 127.0.0.1:" + std::to_string(port)).c_str());
    CloseQuietly(fd);
    return Status::IOError(err);
  }
  if (::listen(fd, backlog) != 0) {
    const std::string err = Errno("listen");
    CloseQuietly(fd);
    return Status::IOError(err);
  }
  return fd;
}

Result<int> BoundPort(int fd) {
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return Status::IOError(Errno("getsockname"));
  }
  return static_cast<int>(ntohs(bound.sin_port));
}

int AcceptRetry(int listen_fd) {
  const FailPointAction injected = EvalFailpoint("net.accept");
  if (injected.fired()) return -1;
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return fd;
    if (errno == EINTR) continue;  // signal between poll() and accept()
    // EAGAIN (the connection vanished), ECONNABORTED, EMFILE under fd
    // pressure: all transient from the accept loop's point of view.
    return -1;
  }
}

Result<int> ConnectTcp(const std::string& host, int port) {
  IgnoreSigpipe();
  {
    const FailPointAction injected = EvalFailpoint("net.connect");
    if (injected.fired()) return injected.ToStatus("net.connect");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError(Errno("socket"));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    CloseQuietly(fd);
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const std::string err =
        Errno(("connect " + host + ":" + std::to_string(port)).c_str());
    CloseQuietly(fd);
    return Status::IOError(err);
  }
  return fd;
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(Errno("fcntl O_NONBLOCK"));
  }
  return Status::OK();
}

void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void CloseQuietly(int fd) {
  if (fd < 0) return;
  ::close(fd);  // retrying close on EINTR double-closes on Linux; do not
}

std::uint64_t WallNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

void ShutdownDrainClose(int fd, int max_wait_ms) {
  if (fd < 0) return;
  (void)::shutdown(fd, SHUT_WR);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(max_wait_ms);
  char buf[512];
  for (;;) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) break;
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) break;  // timeout or poll failure: give up, just close
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    if (got > 0) continue;
    if (got < 0 && errno == EINTR) continue;
    break;  // EOF (peer closed after reading the verdict) or error
  }
  CloseQuietly(fd);
}

IoResult RecvSome(int fd, void* buf, std::size_t n, const char* failpoint) {
  const FailPointAction injected = EvalFailpoint(failpoint);
  if (injected.fired()) {
    return {IoResult::Kind::kError, 0,
            injected.message.empty() ? "injected read fault"
                                     : injected.message};
  }
  for (;;) {
    const ssize_t got = ::recv(fd, buf, n, 0);
    if (got > 0) {
      return {IoResult::Kind::kOk, static_cast<std::size_t>(got), {}};
    }
    if (got == 0) return {IoResult::Kind::kClosed, 0, {}};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoResult::Kind::kWouldBlock, 0, {}};
    }
    return {IoResult::Kind::kError, 0, Errno("recv")};
  }
}

IoResult SendSome(int fd, const void* buf, std::size_t n,
                  const char* failpoint) {
  std::size_t limit = n;
  bool tear_after = false;
  const FailPointAction injected = EvalFailpoint(failpoint);
  if (injected.fired()) {
    if (injected.mode == FailPointMode::kTornWrite && n > 0) {
      // A real prefix reaches the wire, then the "crash": the peer sees a
      // torn frame followed by a close.
      limit = injected.torn_bytes > 0
                  ? std::min<std::size_t>(injected.torn_bytes, n)
                  : n / 2;
      tear_after = true;
      if (limit == 0) {
        return {IoResult::Kind::kError, 0, "injected torn write (0 bytes)"};
      }
    } else {
      return {IoResult::Kind::kError, 0,
              injected.message.empty() ? "injected write fault"
                                       : injected.message};
    }
  }
  for (;;) {
    const ssize_t sent = ::send(fd, buf, limit, MSG_NOSIGNAL);
    if (sent >= 0) {
      if (tear_after) {
        return {IoResult::Kind::kError, static_cast<std::size_t>(sent),
                "injected torn write"};
      }
      return {IoResult::Kind::kOk, static_cast<std::size_t>(sent), {}};
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoResult::Kind::kWouldBlock, 0, {}};
    }
    return {IoResult::Kind::kError, 0, Errno("send")};
  }
}

WakePipe::~WakePipe() { Close(); }

Status WakePipe::Open() {
  if (::pipe(fds_) != 0) return Status::IOError(Errno("pipe"));
  for (int fd : fds_) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
  return Status::OK();
}

void WakePipe::Close() {
  CloseQuietly(fds_[0]);
  CloseQuietly(fds_[1]);
  fds_[0] = fds_[1] = -1;
}

void WakePipe::Signal() {
  if (fds_[1] < 0) return;
  const char byte = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is success.
  (void)!::write(fds_[1], &byte, 1);
}

void WakePipe::Drain() {
  if (fds_[0] < 0) return;
  char buf[64];
  while (::read(fds_[0], buf, sizeof(buf)) > 0) {
  }
}

}  // namespace sentinel::net

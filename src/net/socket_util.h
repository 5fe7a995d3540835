#ifndef SENTINEL_NET_SOCKET_UTIL_H_
#define SENTINEL_NET_SOCKET_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace sentinel::net {

/// Shared plain-POSIX socket plumbing for every Sentinel server and client
/// (the obs monitor endpoint and the GED event bus both build on it). All
/// helpers retry EINTR, suppress SIGPIPE (MSG_NOSIGNAL / explicit ignore),
/// and are threaded through the failpoint framework so chaos tests can
/// inject partial reads/writes, torn frames, stalled peers, and refused
/// connects at any I/O site without a real flaky network.

/// Ignores SIGPIPE process-wide (idempotent). A peer that disappears
/// between poll() and send() must surface as EPIPE, never as a signal that
/// kills the daemon. Called by ListenTcp/ConnectTcp; safe to call directly.
void IgnoreSigpipe();

/// Creates a TCP listener bound to 127.0.0.1:`port` (0 = ephemeral) with
/// SO_REUSEADDR, listening with `backlog`. Returns the fd.
Result<int> ListenTcp(int port, int backlog = 64);

/// The port a bound socket actually listens on (resolves ephemeral binds).
Result<int> BoundPort(int fd);

/// accept(2) with EINTR retried. Returns the connection fd, -1 when the
/// accept would block or failed transiently (EMFILE, ECONNABORTED, ...);
/// the caller's poll loop simply tries again. Hits failpoint `net.accept`
/// (error mode models accept failure under fd pressure).
int AcceptRetry(int listen_fd);

/// Blocking connect to host:port with EINTR retried. Hits failpoint
/// `net.connect` first, so chaos tests can model a refused/unreachable
/// server without binding real ports.
Result<int> ConnectTcp(const std::string& host, int port);

Status SetNonBlocking(int fd);
/// Disables Nagle; latency-sensitive frames should not wait for coalescing.
void SetNoDelay(int fd);
/// close(2) with EINTR ignored; tolerates fd < 0.
void CloseQuietly(int fd);

/// Wall-clock ns: the e2e latency anchor. Occurrence origin stamps are wall
/// time so either end of the wire can subtract without knowing the peer's
/// steady-clock offset.
std::uint64_t WallNs();

/// Half-closes the write side (SHUT_WR), then drains inbound bytes for up
/// to `max_wait_ms` (or until EOF) before closing. Use after writing a
/// final verdict to a socket whose receive buffer may still hold unread
/// client bytes: a plain close() there turns into an RST that can discard
/// the verdict in flight, so the peer sees a bare connection reset instead
/// of the typed reply. The wait is bounded so an accept/poll loop calling
/// this cannot be stalled by an unresponsive peer.
void ShutdownDrainClose(int fd, int max_wait_ms = 50);

/// Outcome of one non-blocking I/O attempt.
struct IoResult {
  enum class Kind : std::uint8_t {
    kOk = 0,      // `bytes` transferred (> 0)
    kWouldBlock,  // EAGAIN/EWOULDBLOCK — retry after poll
    kClosed,      // orderly peer shutdown (recv returned 0)
    kError,       // hard error (or injected fault); drop the connection
  };
  Kind kind = Kind::kOk;
  std::size_t bytes = 0;
  std::string error;

  bool ok() const { return kind == Kind::kOk; }
};

/// One recv(2) attempt, EINTR retried. `failpoint` (e.g. "net.server.read")
/// is evaluated first: error mode yields kError (models a reset peer),
/// delay mode stalls the reader.
IoResult RecvSome(int fd, void* buf, std::size_t n,
                  const char* failpoint = nullptr);

/// One send(2) attempt with MSG_NOSIGNAL, EINTR retried. Failpoint modes:
/// error → kError without writing; torn → a prefix (spec `bytes`, default
/// n/2) really reaches the wire and then kError — the peer observes a torn
/// frame followed by a close, the exact failure a mid-write crash produces.
IoResult SendSome(int fd, const void* buf, std::size_t n,
                  const char* failpoint = nullptr);

/// Self-pipe used to wake a poll loop from other threads (subscription
/// pushes, stop requests). Signal() is async-signal-safe-ish (one write);
/// Drain() empties the pipe on the poll thread.
class WakePipe {
 public:
  WakePipe() = default;
  ~WakePipe();

  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  Status Open();
  void Close();
  int read_fd() const { return fds_[0]; }
  void Signal();
  void Drain();

 private:
  int fds_[2] = {-1, -1};
};

}  // namespace sentinel::net

#endif  // SENTINEL_NET_SOCKET_UTIL_H_

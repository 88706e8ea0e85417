#pragma once
// Owning POSIX socket fd plus the tiny fd helpers the transport needs.
// This is the bottom of the networking stack: the epoll loop
// (net/event_loop.hpp), the SO_REUSEPORT listener (net/listener.hpp) and
// the blocking client side (connect_to, send_all, net::recv_line) all
// build on it.

#include <cstdint>
#include <string>
#include <string_view>

#include "support/check.hpp"

namespace lbist::net {

/// Owning file descriptor (move-only).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }
  void close();
  /// Half-closes the read side (unblocks a peer thread stuck in recv).
  void shutdown_read();
  /// Half-closes the write side (signals end-of-requests to the peer).
  void shutdown_write();

 private:
  int fd_ = -1;
};

/// Switches the descriptor into non-blocking mode; throws Error on failure.
void set_nonblocking(int fd);

/// Blocking connect to host:port (host is a dotted-quad or "localhost").
[[nodiscard]] Socket connect_to(const std::string& host, std::uint16_t port);

/// Writes the whole buffer on a blocking socket (MSG_NOSIGNAL, so a
/// vanished peer is an Error rather than SIGPIPE); throws Error on failure.
void send_all(int fd, std::string_view data);

}  // namespace lbist::net

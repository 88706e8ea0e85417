// Edge cases of the event-driven transport (src/net): frame reassembly
// across arbitrarily split reads, oversized-line rejection, bounded
// outbound buffering under non-blocking flushes, SO_REUSEPORT listener
// sharing, the EMFILE reserve-fd accept resilience, half-closed peers,
// and server-level slow-reader disconnection.  Like server_test, this
// file must stay ThreadSanitizer-clean.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/listener.hpp"
#include "net/socket.hpp"
#include "server/server.hpp"
#include "support/json.hpp"

namespace lbist {
namespace {

TEST(LineFramer, ReassemblesFramesSplitAcrossSingleByteReads) {
  net::LineFramer framer;
  const std::string wire = "{\"a\":1}\nsecond line\r\n\nlast";
  std::vector<std::string> lines;
  std::string line;
  for (char c : wire) {
    framer.feed(&c, 1);
    while (framer.next(&line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "{\"a\":1}");
  EXPECT_EQ(lines[1], "second line");  // \r stripped
  EXPECT_EQ(lines[2], "");             // blank line is still a frame
  // The unterminated tail only surfaces at end-of-stream.
  EXPECT_FALSE(framer.next(&line));
  ASSERT_TRUE(framer.finish(&line));
  EXPECT_EQ(line, "last");
  EXPECT_FALSE(framer.finish(&line));
}

TEST(LineFramer, PopsManyLinesFromOneChunk) {
  net::LineFramer framer;
  framer.feed(std::string_view("a\nb\nc\n"));
  std::string line;
  std::vector<std::string> lines;
  while (framer.next(&line)) lines.push_back(line);
  EXPECT_EQ(lines, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(framer.buffered(), 0u);
}

TEST(LineFramer, OversizedPartialLineThrows) {
  net::LineFramer framer(/*max_line=*/64);
  const std::string big(100, 'x');  // no newline anywhere
  framer.feed(big);
  std::string line;
  try {
    (void)framer.next(&line);
    FAIL() << "expected oversized-line error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("request line exceeds 64 bytes"),
              std::string::npos);
  }
}

TEST(LineFramer, OversizedCompleteLineThrows) {
  net::LineFramer framer(/*max_line=*/64);
  framer.feed(std::string(100, 'y') + "\n");
  std::string line;
  EXPECT_THROW((void)framer.next(&line), Error);
}

TEST(OutboundBuffer, AppendRefusesToGrowPastTheBound) {
  net::OutboundBuffer out(/*limit=*/8);
  EXPECT_TRUE(out.append("12345"));
  EXPECT_FALSE(out.append("6789"));  // 5 + 4 > 8: refused, not truncated
  EXPECT_EQ(out.pending(), 5u);
  EXPECT_TRUE(out.append("678"));
  EXPECT_EQ(out.pending(), 8u);
}

TEST(OutboundBuffer, FlushDrainsAndReportsPartialOnFullSocket) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  net::Socket writer(fds[0]);
  net::Socket reader(fds[1]);
  net::set_nonblocking(writer.fd());
  const int small = 4096;
  ::setsockopt(writer.fd(), SOL_SOCKET, SO_SNDBUF, &small, sizeof small);

  net::OutboundBuffer out(/*limit=*/16u << 20);
  EXPECT_TRUE(out.append("hello\n"));
  EXPECT_EQ(out.flush(writer.fd()), net::OutboundBuffer::Flush::Drained);
  char buf[16];
  EXPECT_EQ(::recv(reader.fd(), buf, sizeof buf, 0), 6);

  // Stuff far more than the kernel buffers hold: the flush must stop at
  // Partial instead of blocking or dropping bytes.
  ASSERT_TRUE(out.append(std::string(4u << 20, 'z')));
  ASSERT_EQ(out.flush(writer.fd()), net::OutboundBuffer::Flush::Partial);
  EXPECT_GT(out.pending(), 0u);

  // A reader thread drains while we keep flushing; every byte arrives.
  std::size_t received = 0;
  std::thread drain([&] {
    char chunk[65536];
    while (received < (4u << 20)) {
      const ssize_t n = ::recv(reader.fd(), chunk, sizeof chunk, 0);
      if (n <= 0) break;
      received += static_cast<std::size_t>(n);
    }
  });
  while (out.flush(writer.fd()) != net::OutboundBuffer::Flush::Drained) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  drain.join();
  EXPECT_EQ(received, 4u << 20);
}

TEST(OutboundBuffer, FlushReportsPeerGoneAfterReset) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  net::Socket writer(fds[0]);
  net::set_nonblocking(writer.fd());
  ::close(fds[1]);

  net::OutboundBuffer out(/*limit=*/1u << 20);
  // The first send may land in the kernel buffer; keep writing until the
  // closed peer surfaces as an error.
  auto status = net::OutboundBuffer::Flush::Drained;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(out.append(std::string(4096, 'q')));
    status = out.flush(writer.fd());
    if (status == net::OutboundBuffer::Flush::PeerGone) break;
  }
  EXPECT_EQ(status, net::OutboundBuffer::Flush::PeerGone);
}

TEST(EventLoop, WakeupFromAnotherThreadInterruptsWait) {
  net::EventLoop loop;
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    loop.wakeup();
  });
  std::vector<net::EventLoop::Ready> ready;
  bool woken = false;
  loop.wait(&ready, /*timeout_ms=*/5000, &woken);
  waker.join();
  EXPECT_TRUE(woken);
  EXPECT_TRUE(ready.empty());
}

TEST(EventLoop, ReportsReadableAndWritableByTag) {
  net::EventLoop loop;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  net::Socket a(fds[0]);
  net::Socket b(fds[1]);
  loop.add(a.fd(), net::EventLoop::kRead | net::EventLoop::kWrite, 42);
  ASSERT_EQ(::send(b.fd(), "x", 1, 0), 1);

  std::vector<net::EventLoop::Ready> ready;
  bool woken = false;
  ASSERT_GE(loop.wait(&ready, 5000, &woken), 1);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].tag, 42u);
  EXPECT_TRUE(ready[0].readable);
  EXPECT_TRUE(ready[0].writable);  // empty send buffer
  loop.del(a.fd());
}

TEST(ReuseportListener, TwoListenersShareOnePort) {
  net::ReuseportListener first(0);
  net::ReuseportListener second(first.port());
  EXPECT_EQ(first.port(), second.port());

  // A loopback connect lands on exactly one of the two backlogs; poll
  // both through one event loop and accept wherever it arrived.
  net::EventLoop loop;
  loop.add(first.fd(), net::EventLoop::kRead, 1);
  loop.add(second.fd(), net::EventLoop::kRead, 2);
  net::Socket client = net::connect_to("127.0.0.1", first.port());

  std::vector<net::EventLoop::Ready> ready;
  bool woken = false;
  ASSERT_GE(loop.wait(&ready, 5000, &woken), 1);
  net::Socket accepted;
  const auto status = (ready[0].tag == 1 ? first : second).accept_one(
      &accepted);
  EXPECT_EQ(status, net::ReuseportListener::AcceptStatus::Accepted);
  EXPECT_TRUE(accepted.valid());
}

TEST(ReuseportListener, AcceptSurvivesFdExhaustionAndRecovers) {
  net::ReuseportListener listener(0);

  // Lower the descriptor ceiling so exhausting it stays fast, restoring
  // it on exit no matter how the test ends.
  rlimit old{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &old), 0);
  struct Restore {
    rlimit saved;
    ~Restore() { ::setrlimit(RLIMIT_NOFILE, &saved); }
  } restore{old};
  rlimit lowered = old;
  lowered.rlim_cur = 128;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);

  // The victim connects BEFORE exhaustion (the TCP handshake completes in
  // the backlog without accept), so shedding has something to shed.
  net::Socket victim = net::connect_to("127.0.0.1", listener.port());

  std::vector<int> hog;
  while (true) {
    const int fd = ::open("/dev/null", O_RDONLY);
    if (fd < 0) {
      ASSERT_TRUE(errno == EMFILE || errno == ENFILE);
      break;
    }
    hog.push_back(fd);
  }

  // Descriptor exhaustion must not throw and must not wedge the loop: the
  // pending connection is shed against the reserve fd.
  net::Socket out;
  const auto status = listener.accept_one(&out);
  EXPECT_EQ(status, net::ReuseportListener::AcceptStatus::FdExhausted);
  EXPECT_FALSE(out.valid());

  // The victim sees a deterministic close instead of hanging forever.
  char byte;
  const ssize_t n = ::recv(victim.fd(), &byte, 1, 0);
  EXPECT_LE(n, 0);

  // Backlog is empty again.
  EXPECT_EQ(listener.accept_one(&out),
            net::ReuseportListener::AcceptStatus::WouldBlock);

  for (const int fd : hog) ::close(fd);

  // With descriptors back, the next connection is accepted normally.
  net::Socket second = net::connect_to("127.0.0.1", listener.port());
  auto final_status = net::ReuseportListener::AcceptStatus::WouldBlock;
  for (int i = 0; i < 4000; ++i) {
    final_status = listener.accept_one(&out);
    if (final_status != net::ReuseportListener::AcceptStatus::WouldBlock &&
        final_status != net::ReuseportListener::AcceptStatus::Retry) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(final_status, net::ReuseportListener::AcceptStatus::Accepted);
  EXPECT_TRUE(out.valid());
}

// A half-closed peer (shutdown(SHUT_WR) after sending) must still receive
// every response before the server closes the connection.
TEST(ServerTransport, HalfClosedClientStillReceivesResponses) {
  ServerOptions opts;
  opts.jobs = 1;
  Server server(std::move(opts));
  server.start();

  net::Socket sock = net::connect_to("127.0.0.1", server.port());
  net::send_all(sock.fd(),
                "{\"type\":\"health\"}\n{\"type\":\"metrics\"}\n");
  sock.shutdown_write();

  net::LineFramer framer;
  std::vector<std::string> lines;
  std::string line;
  while (net::recv_line(sock.fd(), framer, &line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(Json::parse(lines[0]).at("type").as_string(), "health");
  EXPECT_EQ(Json::parse(lines[1]).at("type").as_string(), "metrics");
  server.stop();
}

// A final request without a trailing newline is still served (the framer
// delivers it at end-of-stream).
TEST(ServerTransport, UnterminatedFinalRequestIsServed) {
  ServerOptions opts;
  opts.jobs = 1;
  Server server(std::move(opts));
  server.start();

  net::Socket sock = net::connect_to("127.0.0.1", server.port());
  net::send_all(sock.fd(), "{\"type\":\"health\"}");  // no '\n'
  sock.shutdown_write();

  net::LineFramer framer;
  std::string line;
  ASSERT_TRUE(net::recv_line(sock.fd(), framer, &line));
  EXPECT_EQ(Json::parse(line).at("status").as_string(), "ok");
  EXPECT_FALSE(net::recv_line(sock.fd(), framer, &line));
  server.stop();
}

// A peer that sends requests but never reads responses is disconnected
// once the bounded outbound buffer fills, instead of growing server
// memory without limit.
TEST(ServerTransport, SlowReaderIsDisconnected) {
  ServerOptions opts;
  opts.jobs = 1;
  opts.max_outbound = 4096;  // constructor floor; tiny on purpose
  Server server(std::move(opts));
  server.start();

  net::Socket sock = net::connect_to("127.0.0.1", server.port());
  // Each prometheus response carries the full exposition text (hundreds
  // of bytes); a burst of them overflows 4096 pending bytes quickly while
  // this test never reads a single reply.
  std::string burst;
  for (int i = 0; i < 512; ++i) burst += "{\"type\":\"prometheus\"}\n";
  // The server may drop the connection mid-send; raw send() keeps going
  // until then without dying on SIGPIPE.
  std::size_t sent = 0;
  while (sent < burst.size()) {
    const ssize_t n = ::send(sock.fd(), burst.data() + sent,
                             burst.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }

  bool disconnected = false;
  for (int i = 0; i < 4000; ++i) {
    if (server.metrics().counter("slow_reader_disconnects").value() >= 1) {
      disconnected = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(disconnected);
  server.stop();
}

}  // namespace
}  // namespace lbist

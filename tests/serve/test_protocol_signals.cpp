// Signal-delivery robustness of the framed protocol IO.
//
// A process that hosts the serving plane also hosts signal handlers
// (stserved installs SIGINT/SIGTERM handlers for graceful drain), and a
// handler installed *without* SA_RESTART makes every blocking syscall
// in every thread fail with EINTR when any signal lands. These tests
// install exactly such a handler and bombard the IO thread with
// signals while a frame is crossing the socket in deliberately small
// slices — read_frame / read_frame_deadline / write_frame must treat
// EINTR as "resume where you were", never as frame corruption, data
// loss, or a spurious error return.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

namespace {

using st::serve::FrameReadResult;
using st::serve::FrameStatus;

std::atomic<std::uint64_t> g_signals_delivered{0};

void count_signal(int /*signo*/) {
  g_signals_delivered.fetch_add(1, std::memory_order_relaxed);
}

/// Installs a SIGUSR1 handler with sa_flags = 0 — deliberately NOT
/// SA_RESTART, so a delivered signal interrupts blocking syscalls with
/// EINTR instead of transparently restarting them. Restores the old
/// disposition on destruction.
class InterruptingSignalGuard {
 public:
  InterruptingSignalGuard() {
    struct sigaction sa {};
    sa.sa_handler = count_signal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    EXPECT_EQ(::sigaction(SIGUSR1, &sa, &old_), 0);
  }
  ~InterruptingSignalGuard() { ::sigaction(SIGUSR1, &old_, nullptr); }

 private:
  struct sigaction old_ {};
};

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) {
      ::close(a);
    }
    if (b >= 0) {
      ::close(b);
    }
  }
};

/// Fire SIGUSR1 at `target` every few hundred microseconds until told
/// to stop; returns how many were sent.
class SignalStorm {
 public:
  explicit SignalStorm(pthread_t target)
      : thread_([this, target] {
          while (!stop_.load(std::memory_order_acquire)) {
            ::pthread_kill(target, SIGUSR1);
            std::this_thread::sleep_for(std::chrono::microseconds(300));
          }
        }) {}
  ~SignalStorm() { stop(); }
  void stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) {
      thread_.join();
    }
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Poll `done` every 100 us for at most 5 s; returns whether it held.
template <typename Pred>
bool wait_up_to_5s(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

/// Bytes waiting unread in `fd`'s receive queue.
int bytes_queued(int fd) {
  int queued = 0;
  EXPECT_EQ(::ioctl(fd, FIONREAD, &queued), 0);
  return queued;
}

std::string frame_bytes(const std::string& payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  std::string bytes;
  bytes.push_back(static_cast<char>(len & 0xFFU));
  bytes.push_back(static_cast<char>((len >> 8U) & 0xFFU));
  bytes.push_back(static_cast<char>((len >> 16U) & 0xFFU));
  bytes.push_back(static_cast<char>((len >> 24U) & 0xFFU));
  bytes += payload;
  return bytes;
}

TEST(ProtocolSignals, ReadFrameResumesAcrossEintrMidFrame) {
  const InterruptingSignalGuard guard;
  const SocketPair sockets;
  const std::string payload(20000, 'x');
  const std::string bytes = frame_bytes(payload);

  FrameReadResult result;
  std::thread reader([&] {
    result = st::serve::read_frame(sockets.a, 1U << 20U, nullptr);
  });
  SignalStorm storm(reader.native_handle());

  // Drip the frame through in small slices with pauses, so the reader
  // spends the whole transfer blocked (in poll or in a short read) with
  // signals raining on it.
  constexpr std::size_t kSlice = 512;
  const std::size_t held_back = bytes.size() - kSlice;
  for (std::size_t sent = 0; sent < held_back; sent += kSlice) {
    const std::size_t n = std::min(kSlice, held_back - sent);
    ASSERT_EQ(::send(sockets.b, bytes.data() + sent, n, MSG_NOSIGNAL),
              static_cast<ssize_t>(n));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  // Hold the last slice back until the reader has drained the socket —
  // it is then inside read_frame, blocked mid-frame — and a signal has
  // landed since. On a loaded machine the drip alone can finish before
  // the storm's first signal, and then the test proves nothing.
  const bool drained =
      wait_up_to_5s([&] { return bytes_queued(sockets.a) == 0; });
  const std::uint64_t before = g_signals_delivered.load();
  const bool interrupted =
      wait_up_to_5s([&] { return g_signals_delivered.load() > before; });
  ASSERT_EQ(::send(sockets.b, bytes.data() + held_back, kSlice, MSG_NOSIGNAL),
            static_cast<ssize_t>(kSlice));
  // Stop the storm before joining: a pthread_kill aimed at a joined
  // thread is undefined; at a finished-but-unjoined one it is benign.
  storm.stop();
  reader.join();

  EXPECT_EQ(result.status, FrameStatus::kOk);
  EXPECT_EQ(result.payload, payload);
  EXPECT_TRUE(drained) << "reader did not drain the first "
                       << held_back << " bytes within 5 s";
  EXPECT_TRUE(interrupted) << "no signal landed while the reader waited "
                              "for the last slice";
}

TEST(ProtocolSignals, ReadFrameDeadlineResumesAcrossEintr) {
  const InterruptingSignalGuard guard;
  const SocketPair sockets;
  const std::string payload = R"({"type":"ping"})";
  const std::string bytes = frame_bytes(payload);

  FrameReadResult result;
  std::thread reader([&] {
    result = st::serve::read_frame_deadline(sockets.a, 1U << 20U,
                                            /*timeout_ms=*/10000);
  });
  SignalStorm storm(reader.native_handle());
  // Let signals interrupt the deadline poll before any byte arrives —
  // an EINTR there must re-poll, not report kTimeout or kError early.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (std::size_t sent = 0; sent < bytes.size(); ++sent) {
    ASSERT_EQ(::send(sockets.b, bytes.data() + sent, 1, MSG_NOSIGNAL), 1);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  storm.stop();
  reader.join();

  EXPECT_EQ(result.status, FrameStatus::kOk);
  EXPECT_EQ(result.payload, payload);
}

TEST(ProtocolSignals, WriteFrameResumesAcrossEintrAndEagain) {
  const InterruptingSignalGuard guard;
  const SocketPair sockets;
  // Non-blocking writer with a minimal send buffer: write_frame will hit
  // both short sends and EAGAIN (buffer full), interleaved with EINTR
  // from the storm. The kernel clamps SO_SNDBUF to its floor, which is
  // exactly what we want — the smallest legal buffer.
  const int tiny = 1;
  ASSERT_EQ(::setsockopt(sockets.a, SOL_SOCKET, SO_SNDBUF, &tiny,
                         sizeof(tiny)),
            0);
  ASSERT_EQ(::fcntl(sockets.a, F_SETFL, O_NONBLOCK), 0);

  std::string payload(256 * 1024, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + (i % 23));
  }

  bool wrote = false;
  std::thread writer(
      [&] { wrote = st::serve::write_frame(sockets.a, payload); });
  SignalStorm storm(writer.native_handle());

  // Drain slowly on the blocking side so the writer keeps refilling the
  // tiny buffer; the whole frame must still arrive intact and in order.
  const FrameReadResult result =
      st::serve::read_frame(sockets.b, 64U << 20U, nullptr);
  storm.stop();
  writer.join();

  EXPECT_TRUE(wrote);
  ASSERT_EQ(result.status, FrameStatus::kOk);
  EXPECT_EQ(result.payload, payload);
}

}  // namespace

// The epoll Poller's contract, case by case: each fd registered once,
// with the tag its events carry back; level- against edge-triggered
// reporting; unwatching; timeout edge cases (negative = forever, 0 =
// non-blocking, values past INT_MAX), and EINTR retry behaviour - a signal
// arriving mid-wait must consume the remaining timeout, not surface as a
// spurious empty wake.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <climits>
#include <limits>
#include <thread>

#include "transport/poller.h"
#include "transport/stream.h"

namespace af {
namespace {

TEST(PollerTest, EventsCarryTheirTagAndUnwatchStopsThem) {
  auto first = CreateStreamPair();
  auto second = CreateStreamPair();
  ASSERT_TRUE(first.ok() && second.ok());
  auto& [a1, b1] = first.value();
  auto& [a2, b2] = second.value();
  Poller poller;
  poller.Watch(b1.fd(), 11, Poller::kRead);
  poller.Watch(b2.fd(), uint64_t{1} << 40, Poller::kRead);
  EXPECT_EQ(poller.watched(), 2u);
  EXPECT_TRUE(poller.Wait(0).empty());

  const char byte = '!';
  a2.WriteAll(&byte, 1);
  {
    const auto& events = poller.Wait(1000);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].tag, uint64_t{1} << 40);
    EXPECT_TRUE(events[0].readable);
    EXPECT_FALSE(events[0].writable);
  }
  a1.WriteAll(&byte, 1);
  poller.Unwatch(b2.fd());
  EXPECT_EQ(poller.watched(), 1u);
  {
    const auto& events = poller.Wait(1000);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].tag, 11u);
  }
  poller.Unwatch(b1.fd());
  EXPECT_EQ(poller.watched(), 0u);
  EXPECT_TRUE(poller.Wait(0).empty());
}

TEST(PollerTest, LevelReportsEveryWaitEdgeReportsOnce) {
  auto level_pair = CreateStreamPair();
  auto edge_pair = CreateStreamPair();
  ASSERT_TRUE(level_pair.ok() && edge_pair.ok());
  auto& [la, lb] = level_pair.value();
  auto& [ea, eb] = edge_pair.value();
  Poller poller;
  poller.Watch(lb.fd(), 1, Poller::kRead);
  poller.Watch(eb.fd(), 2, Poller::kRead | Poller::kEdgeTriggered);
  const char byte = 'x';
  la.WriteAll(&byte, 1);
  ea.WriteAll(&byte, 1);
  EXPECT_EQ(poller.Wait(1000).size(), 2u);
  // Nothing was read: the level-triggered fd is reported again, the
  // edge-triggered one not until more bytes arrive.
  for (int i = 0; i < 3; ++i) {
    const auto& events = poller.Wait(0);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].tag, 1u);
  }
  ea.WriteAll(&byte, 1);
  EXPECT_EQ(poller.Wait(0).size(), 2u);
}

TEST(PollerTest, TimeoutEdgeCasesWithReadyFd) {
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = pair.value();
  const char byte = 'r';
  a.WriteAll(&byte, 1);
  Poller poller;
  poller.Watch(b.fd(), 1, Poller::kRead);
  // A ready fd must be reported regardless of how the timeout is spelled:
  // negative (forever), zero (non-blocking), and values past INT_MAX
  // (which would go negative in a naive int cast and spin or block).
  for (const int64_t timeout : {int64_t{-1}, int64_t{-1000}, int64_t{0},
                                int64_t{1} << 40, INT64_MAX}) {
    const auto& events = poller.Wait(timeout);
    ASSERT_EQ(events.size(), 1u) << "timeout " << timeout;
    EXPECT_TRUE(events[0].readable);
  }
}

// The clamp itself, pinned value by value.
TEST(PollerClampTest, NegativeAndOverflowEdges) {
  EXPECT_EQ(Poller::ClampTimeoutMs(-1), -1);
  EXPECT_EQ(Poller::ClampTimeoutMs(-1000), -1);
  EXPECT_EQ(Poller::ClampTimeoutMs(std::numeric_limits<int64_t>::min()), -1);
  EXPECT_EQ(Poller::ClampTimeoutMs(0), 0);
  EXPECT_EQ(Poller::ClampTimeoutMs(1), 1);
  EXPECT_EQ(Poller::ClampTimeoutMs(INT_MAX), INT_MAX);
  // Values past INT_MAX would wrap negative in a naive int cast (turning a
  // finite wait into forever); they must saturate instead.
  EXPECT_EQ(Poller::ClampTimeoutMs(static_cast<int64_t>(INT_MAX) + 1), INT_MAX);
  EXPECT_EQ(Poller::ClampTimeoutMs(int64_t{1} << 32), INT_MAX);
  EXPECT_EQ(Poller::ClampTimeoutMs(std::numeric_limits<int64_t>::max()), INT_MAX);
}

TEST(PollerTest, HugeTimeoutStillWakesOnActivity) {
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = pair.value();
  Poller poller;
  poller.Watch(b.fd(), 1, Poller::kRead);
  std::thread writer([&a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    const char byte = 'w';
    a.WriteAll(&byte, 1);
  });
  // INT64_MAX milliseconds overflows an int; the clamp must still block
  // (not fail fast) and the write must wake it.
  const auto& events = poller.Wait(INT64_MAX);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].readable);
  writer.join();
}

// --- EINTR retry ------------------------------------------------------------

void IgnoreAlarm(int) {}

TEST(PollerTest, SignalDoesNotSurfaceAsEmptyWake) {
  auto pair = CreateStreamPair();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = pair.value();
  Poller poller;
  poller.Watch(b.fd(), 1, Poller::kRead);

  // A repeating 20 ms SIGALRM with SA_RESTART off makes the kernel wait
  // return EINTR many times within one logical 200 ms Wait.
  struct sigaction sa = {};
  sa.sa_handler = &IgnoreAlarm;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: the wait call must see EINTR
  struct sigaction old_sa;
  ASSERT_EQ(sigaction(SIGALRM, &sa, &old_sa), 0);
  struct itimerval timer = {};
  timer.it_interval.tv_usec = 20000;
  timer.it_value.tv_usec = 20000;
  ASSERT_EQ(setitimer(ITIMER_REAL, &timer, nullptr), 0);

  const auto start = std::chrono::steady_clock::now();
  const auto& events = poller.Wait(200);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);

  struct itimerval off = {};
  setitimer(ITIMER_REAL, &off, nullptr);
  sigaction(SIGALRM, &old_sa, nullptr);

  // The wait must run its full course: an early return here would mean a
  // signal was reported as a wake, which double-counts poll_wake_micros
  // and spins the server loop under signal load.
  EXPECT_TRUE(events.empty());
  EXPECT_GE(elapsed.count(), 180);
  (void)a;
}

}  // namespace
}  // namespace af

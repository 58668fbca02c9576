// Readiness notification for the server loop: the modern equivalent of the
// paper's WaitForSomething() select() core ("no operating system support
// more complex than the select() system call is required").
//
// The platform is Linux, so the Poller is an epoll(7) wrapper: the kernel
// holds the interest set, and a wake costs O(ready fds), not
// O(connections). Each fd is registered once, with the interest it keeps
// until it is unwatched, and a caller-chosen tag that every event for it
// carries back, so the loop needs no lookup to tell what woke it. Nothing
// re-declares or changes an interest.
#ifndef AF_TRANSPORT_POLLER_H_
#define AF_TRANSPORT_POLLER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

struct epoll_event;

namespace af {

struct PollEvent {
  uint64_t tag = 0;  // as given to Watch
  bool readable = false;
  bool writable = false;
  bool closed = false;  // hangup (either side, or the peer's write side) or error
};

class Poller {
 public:
  // Interest flags for Watch. Level-triggered interest reports an fd on
  // every wait while it stays ready; edge-triggered interest reports it
  // once per change: new bytes to read, or buffer space freed for writing.
  static constexpr unsigned kRead = 1;
  static constexpr unsigned kWrite = 2;
  static constexpr unsigned kEdgeTriggered = 4;

  // Creates the epoll instance; failing to (fd exhaustion) is fatal.
  Poller();
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  // Registers an fd not yet watched, with its interest for as long as it
  // stays watched. Its events carry `tag`.
  void Watch(int fd, uint64_t tag, unsigned interest);
  // Call before closing the fd.
  void Unwatch(int fd);

  // Blocks up to timeout_ms (any negative value = forever, 0 = poll).
  // Returns fds with activity; empty on timeout. The returned vector is
  // owned by the Poller and reused across calls. EINTR is retried with
  // the remaining timeout rather than reported as an (empty) wake.
  const std::vector<PollEvent>& Wait(int64_t timeout_ms);

  size_t watched() const { return watched_; }

  // Clamps a caller timeout to what epoll_wait(2) accepts: any negative
  // value means forever (-1), and values beyond INT_MAX saturate instead
  // of wrapping through the int cast. Applied by Wait() before every
  // kernel wait; exposed for the regression tests.
  static int ClampTimeoutMs(int64_t timeout_ms);

 private:
  int epfd_;
  size_t watched_ = 0;
  std::vector<struct epoll_event> ready_;  // complete in poller.cc only
  std::vector<PollEvent> events_;
};

}  // namespace af

#endif  // AF_TRANSPORT_POLLER_H_

// Readiness notification for the server loop: the modern equivalent of the
// paper's WaitForSomething() select() core ("no operating system support
// more complex than the select() system call is required").
//
// The platform is Linux, so the Poller is a level-triggered epoll(7)
// wrapper: the kernel holds the interest set, Watch/Unwatch are O(1)
// epoll_ctl calls, and a wake costs O(ready fds), not O(connections). The
// Poller mirrors each fd's interest, so re-asserting an unchanged interest
// costs no syscall.
#ifndef AF_TRANSPORT_POLLER_H_
#define AF_TRANSPORT_POLLER_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

struct epoll_event;

namespace af {

struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool closed = false;  // hangup or error
};

class Poller {
 public:
  // Creates the epoll instance; failing to (fd exhaustion) is fatal.
  Poller();
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  // Registers or updates interest in an fd. Re-asserting an unchanged
  // interest is free (no syscall).
  void Watch(int fd, bool want_read, bool want_write);
  void Unwatch(int fd);

  // Blocks up to timeout_ms (any negative value = forever, 0 = poll).
  // Returns fds with activity; empty on timeout. The returned vector is
  // owned by the Poller and reused across calls. EINTR is retried with
  // the remaining timeout rather than reported as an (empty) wake.
  const std::vector<PollEvent>& Wait(int64_t timeout_ms);

  size_t watched() const { return interests_.size(); }

  // Clamps a caller timeout to what epoll_wait(2) accepts: any negative
  // value means forever (-1), and values beyond INT_MAX saturate instead
  // of wrapping through the int cast. Applied by Wait() before every
  // kernel wait; exposed for the regression tests.
  static int ClampTimeoutMs(int64_t timeout_ms);

 private:
  struct Interest {
    bool want_read;
    bool want_write;
  };

  int epfd_;
  std::unordered_map<int, Interest> interests_;
  std::vector<struct epoll_event> ready_;  // complete in poller.cc only
  std::vector<PollEvent> events_;
};

}  // namespace af

#endif  // AF_TRANSPORT_POLLER_H_

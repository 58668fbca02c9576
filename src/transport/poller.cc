#include "transport/poller.h"

#include <errno.h>
#include <limits.h>
#include <string.h>
#include <sys/epoll.h>
#include <unistd.h>

#include "common/clock.h"
#include "common/log.h"

namespace af {

Poller::Poller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)), ready_(64) {
  if (epfd_ < 0) {
    FatalError("Poller: epoll_create1 failed: %s", strerror(errno));
  }
}

Poller::~Poller() { ::close(epfd_); }

void Poller::Watch(int fd, uint64_t tag, unsigned interest) {
  struct epoll_event ev;
  memset(&ev, 0, sizeof(ev));
  if (interest & kRead) {
    ev.events |= EPOLLIN | EPOLLRDHUP;
  }
  if (interest & kWrite) {
    ev.events |= EPOLLOUT;
  }
  if (interest & kEdgeTriggered) {
    ev.events |= EPOLLET;
  }
  ev.data.u64 = tag;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) == 0) {
    ++watched_;
  }
}

void Poller::Unwatch(int fd) {
  if (::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr) == 0) {
    --watched_;
  }
}

int Poller::ClampTimeoutMs(int64_t timeout_ms) {
  if (timeout_ms < 0) {
    return -1;
  }
  if (timeout_ms > INT_MAX) {
    return INT_MAX;
  }
  return static_cast<int>(timeout_ms);
}

const std::vector<PollEvent>& Poller::Wait(int64_t timeout_ms) {
  events_.clear();
  // Clamp once, then retry EINTR with the remaining timeout so a signal
  // delivery is never reported to the loop as a wake (which would
  // double-count poll_wake_micros lag upstream).
  int remaining = ClampTimeoutMs(timeout_ms);
  const uint64_t deadline_us =
      remaining < 0 ? 0 : HostMicros() + static_cast<uint64_t>(remaining) * 1000u;
  int n;
  for (;;) {
    n = ::epoll_wait(epfd_, ready_.data(), static_cast<int>(ready_.size()), remaining);
    if (n >= 0 || errno != EINTR) {
      break;
    }
    if (remaining >= 0) {
      const uint64_t now_us = HostMicros();
      remaining = now_us >= deadline_us
                      ? 0
                      : static_cast<int>((deadline_us - now_us + 999) / 1000);
    }
  }
  for (int i = 0; i < n; ++i) {
    const struct epoll_event& e = ready_[static_cast<size_t>(i)];
    PollEvent ev;
    ev.tag = e.data.u64;
    ev.readable = (e.events & EPOLLIN) != 0;
    ev.writable = (e.events & EPOLLOUT) != 0;
    ev.closed = (e.events & (EPOLLHUP | EPOLLERR | EPOLLRDHUP)) != 0;
    events_.push_back(ev);
  }
  // A full batch means more fds may be ready; grow so the next wake can
  // report them all (the kernel keeps the rest on its ready list, so
  // nothing is lost meanwhile).
  if (static_cast<size_t>(n) == ready_.size()) {
    ready_.resize(ready_.size() * 2);
  }
  return events_;
}

}  // namespace af

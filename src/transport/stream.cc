#include "transport/stream.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <limits.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <ctime>

namespace af {

FdStream::~FdStream() { Close(); }

FdStream& FdStream::operator=(FdStream&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void FdStream::Shutdown() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

void FdStream::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

IoResult FdStream::Read(void* buf, size_t len) {
  for (;;) {
    const ssize_t n = ::read(fd_, buf, len);
    if (n > 0) {
      return {IoStatus::kOk, static_cast<size_t>(n)};
    }
    if (n == 0) {
      return {IoStatus::kClosed, 0};
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoStatus::kWouldBlock, 0};
    }
    return {IoStatus::kError, 0};
  }
}

IoResult FdStream::Write(const void* buf, size_t len) {
  for (;;) {
    // MSG_NOSIGNAL suppresses SIGPIPE when the peer has gone.
    const ssize_t n = ::send(fd_, buf, len, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) {
      return {IoStatus::kOk, static_cast<size_t>(n)};
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoStatus::kWouldBlock, 0};
    }
    if (errno == EPIPE || errno == ECONNRESET) {
      return {IoStatus::kClosed, 0};
    }
    return {IoStatus::kError, 0};
  }
}

Status WaitForFd(int fd, bool for_read) {
  struct pollfd pfd = {};
  pfd.fd = fd;
  pfd.events = for_read ? POLLIN : POLLOUT;
  while (::poll(&pfd, 1, -1) < 0) {
    if (errno != EINTR) {
      return Status(AfError::kConnectionLost, for_read ? "poll(POLLIN)" : "poll(POLLOUT)");
    }
  }
  return Status::Ok();
}

Status FdStream::WriteAll(const void* buf, size_t len) {
  return TransferAll<IoDir::kWrite>(*this, buf, len);
}

Status FdStream::ReadAll(void* buf, size_t len) {
  return TransferAll<IoDir::kRead>(*this, buf, len);
}

Status FdStream::SetNonBlocking(bool nonblocking) {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) {
    return Status(AfError::kConnectionLost, "fcntl F_GETFL");
  }
  const int wanted = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_, F_SETFL, wanted) < 0) {
    return Status(AfError::kConnectionLost, "fcntl F_SETFL");
  }
  return Status::Ok();
}

void FdStream::SetNoDelay(bool nodelay) {
  const int v = nodelay ? 1 : 0;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &v, sizeof(v));
}

std::string PeerAddress::ToString() const {
  if (IsLocal()) {
    return "local";
  }
  char buf[INET6_ADDRSTRLEN] = {};
  if (family == 0 && address.size() == 4) {
    inet_ntop(AF_INET, address.data(), buf, sizeof(buf));
  } else if (family == 1 && address.size() == 16) {
    inet_ntop(AF_INET6, address.data(), buf, sizeof(buf));
  } else {
    return "invalid";
  }
  return buf;
}

std::string ServerAddr::UnixPath() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/tmp/.AF-unix/AF%d", display);
  return buf;
}

// Largest display number whose TCP port still fits in 16 bits.
constexpr int kMaxDisplay = 65535 - kAudioFileBasePort;

std::optional<ServerAddr> ParseServerName(std::string_view name) {
  const size_t colon = name.rfind(':');
  if (colon == std::string_view::npos) {
    return std::nullopt;
  }
  const std::string_view host = name.substr(0, colon);
  const std::string_view num = name.substr(colon + 1);
  // "host:" (no display number) is malformed, as in X.
  if (num.empty()) {
    return std::nullopt;
  }
  int display = 0;
  const auto [ptr, ec] = std::from_chars(num.data(), num.data() + num.size(), display);
  if (ec != std::errc() || ptr != num.data() + num.size()) {
    return std::nullopt;
  }
  // Bound the display so kAudioFileBasePort + display cannot wrap the
  // 16-bit TCP port (a "huge display number" must fail, not alias port 0).
  if (display < 0 || display > kMaxDisplay) {
    return std::nullopt;
  }
  ServerAddr addr;
  addr.display = display;
  if (host.empty() || host == "unix") {
    addr.kind = ServerAddr::Kind::kUnix;
  } else {
    addr.kind = ServerAddr::Kind::kTcp;
    addr.host = std::string(host);
  }
  return addr;
}

namespace {

int64_t NowMillis() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

// Nonblocking connect with a deadline. deadline_ms < 0 waits indefinitely.
// Returns 0 on success (fd restored to blocking mode), -1 on failure or
// timeout with errno describing the cause. EINTR resumes with the
// remaining time instead of aborting the connect.
int ConnectWithDeadline(int fd, const struct sockaddr* addr, socklen_t len,
                        int deadline_ms) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return -1;
  }
  const int64_t deadline = deadline_ms >= 0 ? NowMillis() + deadline_ms : 0;
  for (;;) {
    int rc;
    do {
      rc = ::connect(fd, addr, len);
    } while (rc != 0 && errno == EINTR);
    if (rc == 0) {
      break;
    }
    if (errno == EAGAIN && addr->sa_family == AF_UNIX) {
      // AF_UNIX reports a full listener backlog as EAGAIN without starting
      // the connect, so there is nothing to poll for — nap and reissue.
      int wait = 10;
      if (deadline_ms >= 0) {
        const int64_t left = deadline - NowMillis();
        if (left <= 0) {
          errno = ETIMEDOUT;
          return -1;
        }
        wait = static_cast<int>(std::min<int64_t>(left, wait));
      }
      (void)::poll(nullptr, 0, wait);  // EINTR just shortens the nap
      continue;
    }
    if (errno != EINPROGRESS && errno != EALREADY) {
      // EALREADY: a connect interrupted by a signal is already in flight, so
      // the EINTR-resume reissue above reports it — finish via poll/SO_ERROR
      // like EINPROGRESS instead of failing the whole connect.
      return -1;
    }
    for (;;) {
      struct pollfd pfd = {fd, POLLOUT, 0};
      int wait = -1;
      if (deadline_ms >= 0) {
        const int64_t left = deadline - NowMillis();
        if (left <= 0) {
          errno = ETIMEDOUT;
          return -1;
        }
        wait = static_cast<int>(std::min<int64_t>(left, INT_MAX));
      }
      const int pr = ::poll(&pfd, 1, wait);
      if (pr > 0) {
        break;
      }
      if (pr == 0) {
        errno = ETIMEDOUT;
        return -1;
      }
      if (errno != EINTR) {
        return -1;
      }
    }
    int soerr = 0;
    socklen_t soerr_len = sizeof(soerr);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &soerr_len) != 0) {
      return -1;
    }
    if (soerr != 0) {
      errno = soerr;
      return -1;
    }
    break;
  }
  // Connect* hand the stream back in blocking mode (stream.h).
  if (::fcntl(fd, F_SETFL, flags) < 0) {
    return -1;
  }
  return 0;
}

}  // namespace

Result<FdStream> ConnectTcp(const std::string& host, uint16_t port, int deadline_ms) {
  struct addrinfo hints = {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  char portstr[8];
  std::snprintf(portstr, sizeof(portstr), "%u", port);
  struct addrinfo* res = nullptr;
  if (getaddrinfo(host.c_str(), portstr, &hints, &res) != 0) {
    return Status(AfError::kConnectionLost, "cannot resolve host " + host);
  }
  int fd = -1;
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      continue;
    }
    if (ConnectWithDeadline(fd, ai->ai_addr, ai->ai_addrlen, deadline_ms) == 0) {
      break;
    }
    ::close(fd);
    fd = -1;
  }
  freeaddrinfo(res);
  if (fd < 0) {
    return Status(AfError::kConnectionLost, "cannot connect to " + host);
  }
  FdStream stream(fd);
  stream.SetNoDelay(true);
  return stream;
}

Result<FdStream> ConnectUnix(const std::string& path, int deadline_ms) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status(AfError::kConnectionLost, "socket(AF_UNIX)");
  }
  struct sockaddr_un sun = {};
  sun.sun_family = AF_UNIX;
  if (path.size() >= sizeof(sun.sun_path)) {
    ::close(fd);
    return Status(AfError::kBadValue, "unix path too long");
  }
  ::strncpy(sun.sun_path, path.c_str(), sizeof(sun.sun_path) - 1);
  if (ConnectWithDeadline(fd, reinterpret_cast<struct sockaddr*>(&sun),
                          sizeof(sun), deadline_ms) != 0) {
    ::close(fd);
    return Status(AfError::kConnectionLost, "cannot connect to " + path);
  }
  return FdStream(fd);
}

Result<FdStream> ConnectServer(const ServerAddr& addr, int deadline_ms) {
  if (addr.kind == ServerAddr::Kind::kTcp) {
    return ConnectTcp(addr.host, addr.TcpPort(), deadline_ms);
  }
  return ConnectUnix(addr.UnixPath(), deadline_ms);
}

Result<std::pair<FdStream, FdStream>> CreateStreamPair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status(AfError::kConnectionLost, "socketpair");
  }
  return std::make_pair(FdStream(fds[0]), FdStream(fds[1]));
}

}  // namespace af

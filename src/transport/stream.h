// Reliable byte-stream transport.
//
// The protocol presumes a transport that is reliable and does not reorder
// or duplicate data (CRL 93/8 Section 5.1). We support TCP, UNIX-domain
// sockets, and an in-process socketpair; all reduce to a connected file
// descriptor.
//
// Server-name syntax follows the X-style convention the paper adopts via
// the AUDIOFILE / DISPLAY environment variables:
//   "host:n"  - TCP to host, port kAudioFileBasePort + n
//   ":n"      - UNIX-domain socket /tmp/.AF-unix/AFn
//   "unix:n"  - same
#ifndef AF_TRANSPORT_STREAM_H_
#define AF_TRANSPORT_STREAM_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.h"

namespace af {

constexpr uint16_t kAudioFileBasePort = 7000;

// Read/write outcome distinct from byte counts.
enum class IoStatus {
  kOk,         // some bytes transferred
  kWouldBlock, // non-blocking and nothing transferable now
  kClosed,     // orderly EOF on read, or EPIPE on write
  kError,      // hard error (errno-based)
};

struct IoResult {
  IoStatus status;
  size_t bytes = 0;
  // Set by a FaultStream when its schedule, not the kernel, ended the
  // transfer on a ready socket: a read stalled (kWouldBlock) or cut short
  // while the kernel still holds bytes or an EOF, or a write stalled. Such
  // a result proves nothing about the socket, and no later edge will
  // announce what the schedule held back.
  bool injected = false;
};

// An owned, connected stream socket. Move-only RAII over the fd.
class FdStream {
 public:
  FdStream() = default;
  explicit FdStream(int fd) : fd_(fd) {}
  ~FdStream();

  FdStream(FdStream&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  FdStream& operator=(FdStream&& other) noexcept;
  FdStream(const FdStream&) = delete;
  FdStream& operator=(const FdStream&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // Read blocks on a blocking fd. Write never blocks (MSG_DONTWAIT): a
  // full socket reports kWouldBlock in either mode, so a writer can wait
  // for readability as well.
  IoResult Read(void* buf, size_t len);
  IoResult Write(const void* buf, size_t len);
  // Writes the whole buffer / reads exactly len bytes, waiting in poll(2)
  // on a nonblocking fd; kClosed/kError become failures.
  Status WriteAll(const void* buf, size_t len);
  Status ReadAll(void* buf, size_t len);

  Status SetNonBlocking(bool nonblocking);
  // Disables Nagle on TCP sockets; harmless elsewhere.
  void SetNoDelay(bool nodelay);

  // shutdown(2): wakes a thread blocked in Read on this socket, which a
  // plain Close does not.
  void Shutdown();
  void Close();

 private:
  int fd_ = -1;
};

// Peer identity captured at accept time, for host access control.
struct PeerAddress {
  // 0 = IPv4, 1 = IPv6, 2 = local (matches ChangeHostsReq::family).
  uint16_t family = 2;
  std::vector<uint8_t> address;  // network-order address bytes; empty = local

  bool IsLocal() const { return family == 2; }
  std::string ToString() const;
};

// Parsed server name.
struct ServerAddr {
  enum class Kind { kTcp, kUnix } kind = Kind::kUnix;
  std::string host;  // kTcp only
  int display = 0;

  uint16_t TcpPort() const { return static_cast<uint16_t>(kAudioFileBasePort + display); }
  std::string UnixPath() const;
};

// Parses "host:n" / ":n" / "unix:n". Nullopt on malformed names.
std::optional<ServerAddr> ParseServerName(std::string_view name);

// Connect with an optional deadline. deadline_ms < 0 waits indefinitely
// (the historical behavior, minus the EINTR-aborts-the-connect bug);
// deadline_ms >= 0 performs a nonblocking connect, waits at most that long
// for completion via poll(POLLOUT) (resuming EINTR with the remaining
// time), and checks SO_ERROR on completion. The returned stream is back in
// blocking mode either way.
Result<FdStream> ConnectTcp(const std::string& host, uint16_t port, int deadline_ms = -1);
Result<FdStream> ConnectUnix(const std::string& path, int deadline_ms = -1);
Result<FdStream> ConnectServer(const ServerAddr& addr, int deadline_ms = -1);

// An AF_UNIX socketpair for in-process client/server benchmarking.
Result<std::pair<FdStream, FdStream>> CreateStreamPair();

// Waits in poll(2) until fd is readable (for_read) or writable. Fails
// only when poll itself does; EINTR resumes the wait.
Status WaitForFd(int fd, bool for_read);

// How long either end of a round trip polls, yielding its CPU between
// polls, before it blocks: the client awaiting a reply
// (AFAudioConn::FillFromSocket) and a shard whose client is due
// (Shard::RunOnce). It is about one cross-CPU wake-up on the 4-vCPU host
// EXPERIMENTS.md measures (a traced round trip's wire and egress spans,
// each mostly a wake, read 5-8 us). A spin as long as blocking costs keeps
// a waiter within twice the better choice's cost (Karlin et al., SOSP
// 1991).
constexpr uint64_t kSpinBudgetUs = 10;

enum class IoDir { kRead, kWrite };

// The blocking loop behind ReadAll and WriteAll of FdStream and
// FaultStream: moves exactly len bytes through s.Read or s.Write, and
// whenever the stream reports kWouldBlock waits for its fd to be ready.
template <IoDir kDir, typename Stream, typename Byte>
Status TransferAll(Stream& s, Byte* buf, size_t len) {
  constexpr bool kRead = kDir == IoDir::kRead;
  auto* p = static_cast<std::conditional_t<kRead, uint8_t*, const uint8_t*>>(buf);
  while (len > 0) {
    IoResult r;
    if constexpr (kRead) {
      r = s.Read(p, len);
    } else {
      r = s.Write(p, len);
    }
    switch (r.status) {
      case IoStatus::kOk:
        p += r.bytes;
        len -= r.bytes;
        break;
      case IoStatus::kWouldBlock:
        if (Status ready = WaitForFd(s.fd(), kRead); !ready.ok()) {
          return ready;
        }
        break;
      case IoStatus::kClosed:
      case IoStatus::kError:
        return Status(AfError::kConnectionLost, kRead ? "read failed" : "write failed");
    }
  }
  return Status::Ok();
}

}  // namespace af

#endif  // AF_TRANSPORT_STREAM_H_

#include "transport/fault_stream.h"

#include <errno.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstdio>

#include "common/clock.h"

namespace af {

namespace {

// Whether a read of fd would return at once: bytes, an EOF or an error.
bool ReadWouldNotBlock(int fd) {
  uint8_t byte;
  return ::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT) >= 0 ||
         (errno != EAGAIN && errno != EWOULDBLOCK);
}

// Smallest fault boundary strictly beyond `offset`, from a sorted vector.
std::optional<uint64_t> NextBoundary(const std::vector<uint64_t>& splits, uint64_t offset) {
  const auto it = std::upper_bound(splits.begin(), splits.end(), offset);
  if (it == splits.end()) {
    return std::nullopt;
  }
  return *it;
}

}  // namespace

// ---------------------------------------------------------------------------
// Scripting

void FaultSchedule::CutReadAt(uint64_t offset) {
  std::lock_guard<std::mutex> lock(mu_);
  read_.cut = read_.cut ? std::min(*read_.cut, offset) : offset;
}

void FaultSchedule::CutWriteAt(uint64_t offset) {
  std::lock_guard<std::mutex> lock(mu_);
  write_.cut = write_.cut ? std::min(*write_.cut, offset) : offset;
}

void FaultSchedule::ResetReadAt(uint64_t offset) {
  std::lock_guard<std::mutex> lock(mu_);
  read_.reset = read_.reset ? std::min(*read_.reset, offset) : offset;
}

void FaultSchedule::ResetWriteAt(uint64_t offset) {
  std::lock_guard<std::mutex> lock(mu_);
  write_.reset = write_.reset ? std::min(*write_.reset, offset) : offset;
}

void FaultSchedule::SplitReadAt(uint64_t offset) {
  std::lock_guard<std::mutex> lock(mu_);
  read_.splits.insert(std::upper_bound(read_.splits.begin(), read_.splits.end(), offset),
                      offset);
}

void FaultSchedule::SplitWriteAt(uint64_t offset) {
  std::lock_guard<std::mutex> lock(mu_);
  write_.splits.insert(std::upper_bound(write_.splits.begin(), write_.splits.end(), offset),
                       offset);
}

void FaultSchedule::SetMaxReadChunk(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  read_.max_chunk = n;
}

void FaultSchedule::SetMaxWriteChunk(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  write_.max_chunk = n;
}

void FaultSchedule::WouldBlockReadAt(uint64_t offset, int times) {
  std::lock_guard<std::mutex> lock(mu_);
  read_.would_block[offset] += times;
}

void FaultSchedule::WouldBlockWriteAt(uint64_t offset, int times) {
  std::lock_guard<std::mutex> lock(mu_);
  write_.would_block[offset] += times;
}

void FaultSchedule::CorruptReadByte(uint64_t offset, uint8_t xor_mask) {
  std::lock_guard<std::mutex> lock(mu_);
  read_.corrupt[offset] = xor_mask != 0 ? xor_mask : 0xFF;
}

void FaultSchedule::CorruptWriteByte(uint64_t offset, uint8_t xor_mask) {
  std::lock_guard<std::mutex> lock(mu_);
  write_.corrupt[offset] = xor_mask != 0 ? xor_mask : 0xFF;
}

void FaultSchedule::DelayReadAt(uint64_t offset, uint64_t usec) {
  std::lock_guard<std::mutex> lock(mu_);
  read_.delays[offset] += usec;
}

void FaultSchedule::DelayWriteAt(uint64_t offset, uint64_t usec) {
  std::lock_guard<std::mutex> lock(mu_);
  write_.delays[offset] += usec;
}

void FaultSchedule::SetLatencyHook(std::function<void(uint64_t)> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  latency_hook_ = std::move(hook);
}

std::shared_ptr<FaultSchedule> FaultSchedule::Random(uint64_t seed, RandomProfile profile) {
  auto schedule = std::make_shared<FaultSchedule>();
  schedule->random_mode_ = true;
  schedule->seed_ = seed;
  // splitmix-style scramble so nearby seeds do not walk in lockstep; state
  // must never be zero for xorshift.
  uint64_t z = seed + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  schedule->rng_state_ = (z ^ (z >> 31)) | 1;
  schedule->profile_ = profile;
  return schedule;
}

// ---------------------------------------------------------------------------
// Trace

std::vector<std::string> FaultSchedule::Trace() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trace_;
}

std::string FaultSchedule::TraceString() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const std::string& line : trace_) {
    if (!out.empty()) {
      out += "; ";
    }
    out += line;
  }
  return out;
}

size_t FaultSchedule::faults_applied() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trace_.size();
}

void FaultSchedule::RecordLocked(const char* dir, uint64_t offset, const std::string& what) {
  char prefix[48];
  std::snprintf(prefix, sizeof(prefix), "%s@%llu ", dir,
                static_cast<unsigned long long>(offset));
  trace_.push_back(prefix + what);
}

// ---------------------------------------------------------------------------
// Decision engine

uint64_t FaultSchedule::Rand(uint64_t n) {
  // xorshift64: deterministic, seedable, and fast enough for a fault path.
  uint64_t x = rng_state_;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  rng_state_ = x;
  return n == 0 ? 0 : 1 + x % n;
}

FaultSchedule::Decision FaultSchedule::Decide(Channel& ch, const char* dir, uint64_t offset,
                                              size_t len) {
  Decision d;
  d.max_len = len;

  if (random_mode_) {
    // One roll per call; probabilities partition [0, 1).
    const double roll = static_cast<double>(Rand(1u << 24) - 1) / static_cast<double>(1u << 24);
    double edge = profile_.p_cut;
    if (roll < edge) {
      ch.cut = ch.cut ? std::min(*ch.cut, offset) : offset;  // sticky EOF
    }
    edge += profile_.p_reset;
    if (!ch.cut && !ch.reset && roll < edge && roll >= edge - profile_.p_reset) {
      ch.reset = offset;  // sticky hard error
    }
    edge += profile_.p_would_block;
    if (roll < edge && roll >= edge - profile_.p_would_block) {
      ch.would_block[offset] += static_cast<int>(Rand(profile_.would_block_max));
    }
    edge += profile_.p_delay;
    if (roll < edge && roll >= edge - profile_.p_delay) {
      ch.delays[offset] += Rand(profile_.delay_max_us);
    }
    edge += profile_.p_corrupt;
    if (roll < edge && roll >= edge - profile_.p_corrupt && len > 0) {
      const uint64_t at = offset + Rand(len) - 1;
      ch.corrupt[at] = static_cast<uint8_t>(Rand(255));
    }
    edge += profile_.p_short;
    if (roll < edge && roll >= edge - profile_.p_short && len > 1) {
      d.max_len = static_cast<size_t>(Rand(std::min(len, profile_.short_max)));
    }
  }

  // Sticky terminal states first: reset beats cut when both are due.
  if (ch.reset && offset >= *ch.reset) {
    RecordLocked(dir, offset, "reset");
    d.status = IoStatus::kError;
    return d;
  }
  if (ch.cut && offset >= *ch.cut) {
    RecordLocked(dir, offset, "cut");
    d.status = IoStatus::kClosed;
    return d;
  }

  // Flow-control stalls: consume one pending kWouldBlock at or before this
  // offset per call.
  for (auto it = ch.would_block.begin();
       it != ch.would_block.end() && it->first <= offset;) {
    if (it->second > 0) {
      --it->second;
      RecordLocked(dir, offset, "wouldblock");
      d.status = IoStatus::kWouldBlock;
      return d;
    }
    it = ch.would_block.erase(it);
  }

  // Latency due at or before this offset fires (once) ahead of the
  // transfer; through the hook so tests can advance a manual clock
  // instead of sleeping.
  uint64_t delay_us = 0;
  for (auto it = ch.delays.begin(); it != ch.delays.end() && it->first <= offset;) {
    delay_us += it->second;
    char what[32];
    std::snprintf(what, sizeof(what), "delay=%lluus",
                  static_cast<unsigned long long>(it->second));
    RecordLocked(dir, offset, what);
    it = ch.delays.erase(it);
  }
  if (delay_us > 0) {
    // Release the lock around the (possibly sleeping) hook: Decide is
    // called with mu_ held via OnRead/OnWrite.
    std::function<void(uint64_t)> hook = latency_hook_;
    mu_.unlock();
    if (hook) {
      hook(delay_us);
    } else {
      SleepMicros(delay_us);
    }
    mu_.lock();
  }

  // Truncation: cap the transfer at the nearest upcoming boundary (sticky
  // terminal offset, scripted split, pending delay or stall), then at the
  // chunk limit.
  auto cap_at = [&](uint64_t boundary) {
    if (boundary > offset && boundary - offset < d.max_len) {
      d.max_len = static_cast<size_t>(boundary - offset);
    }
  };
  if (ch.reset) {
    cap_at(*ch.reset);
  }
  if (ch.cut) {
    cap_at(*ch.cut);
  }
  if (const auto split = NextBoundary(ch.splits, offset)) {
    cap_at(*split);
  }
  if (!ch.delays.empty()) {
    cap_at(ch.delays.begin()->first);
  }
  if (!ch.would_block.empty()) {
    cap_at(ch.would_block.begin()->first);
  }
  if (ch.max_chunk > 0 && d.max_len > ch.max_chunk) {
    d.max_len = ch.max_chunk;
  }
  if (d.max_len < len) {
    char what[32];
    std::snprintf(what, sizeof(what), "short=%zu", d.max_len);
    RecordLocked(dir, offset, what);
  }
  return d;
}

FaultSchedule::Decision FaultSchedule::OnRead(uint64_t offset, size_t len) {
  std::lock_guard<std::mutex> lock(mu_);
  return Decide(read_, "read", offset, len);
}

FaultSchedule::Decision FaultSchedule::OnWrite(uint64_t offset, size_t len) {
  std::lock_guard<std::mutex> lock(mu_);
  return Decide(write_, "write", offset, len);
}

void FaultSchedule::ApplyReadCorruption(uint64_t offset, uint8_t* buf, size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = read_.corrupt.lower_bound(offset);
  while (it != read_.corrupt.end() && it->first < offset + n) {
    buf[it->first - offset] ^= it->second;
    char what[32];
    std::snprintf(what, sizeof(what), "corrupt^%02X", it->second);
    RecordLocked("read", it->first, what);
    it = read_.corrupt.erase(it);
  }
}

bool FaultSchedule::WantsWriteCorruption(uint64_t offset, size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = write_.corrupt.lower_bound(offset);
  return it != write_.corrupt.end() && it->first < offset + n;
}

void FaultSchedule::ApplyWriteCorruption(uint64_t offset, uint8_t* buf, size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = write_.corrupt.lower_bound(offset);
       it != write_.corrupt.end() && it->first < offset + n; ++it) {
    buf[it->first - offset] ^= it->second;
  }
}

void FaultSchedule::ConsumeWriteCorruption(uint64_t offset, size_t written) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = write_.corrupt.lower_bound(offset);
  while (it != write_.corrupt.end() && it->first < offset + written) {
    char what[32];
    std::snprintf(what, sizeof(what), "corrupt^%02X", it->second);
    RecordLocked("write", it->first, what);
    it = write_.corrupt.erase(it);
  }
}

// ---------------------------------------------------------------------------
// FaultStream

IoResult FaultStream::FaultyRead(void* buf, size_t len) {
  const FaultSchedule::Decision d = schedule_->OnRead(read_offset_, len);
  if (d.status != IoStatus::kOk) {
    return {d.status, 0,
            d.status == IoStatus::kWouldBlock && ReadWouldNotBlock(inner_.fd())};
  }
  const size_t n = std::min(len, d.max_len);
  IoResult r = inner_.Read(buf, n);
  if (r.status == IoStatus::kOk && r.bytes > 0) {
    schedule_->ApplyReadCorruption(read_offset_, static_cast<uint8_t*>(buf), r.bytes);
    read_offset_ += r.bytes;
    r.injected = n < len && r.bytes == n && ReadWouldNotBlock(inner_.fd());
  }
  return r;
}

IoResult FaultStream::FaultyWrite(const void* buf, size_t len) {
  const FaultSchedule::Decision d = schedule_->OnWrite(write_offset_, len);
  if (d.status != IoStatus::kOk) {
    return {d.status, 0, /*injected=*/d.status == IoStatus::kWouldBlock};
  }
  const size_t n = std::min(len, d.max_len);
  IoResult r;
  if (schedule_->WantsWriteCorruption(write_offset_, n)) {
    // Stage the corrupted bytes; only corruption actually sent is consumed,
    // so a partial write leaves the rest pending for the retry.
    std::vector<uint8_t> staged(static_cast<const uint8_t*>(buf),
                                static_cast<const uint8_t*>(buf) + n);
    schedule_->ApplyWriteCorruption(write_offset_, staged.data(), staged.size());
    r = inner_.Write(staged.data(), staged.size());
    if (r.status == IoStatus::kOk) {
      schedule_->ConsumeWriteCorruption(write_offset_, r.bytes);
    }
  } else {
    r = inner_.Write(buf, n);
  }
  if (r.status == IoStatus::kOk) {
    write_offset_ += r.bytes;
  }
  return r;
}

}  // namespace af

#include "process.h"

#include <sys/resource.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>

#ifndef AF_PERFBENCH_BUILD_TYPE
#define AF_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::atomic<uint64_t> g_allocs{0};
thread_local bool t_untracked = false;

void* CountedAlloc(std::size_t n) {
  if (!t_untracked) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n ? n : 1);
}

uint64_t ClockNs(clockid_t id) {
  struct timespec ts;
  clock_gettime(id, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000u + static_cast<uint64_t>(ts.tv_nsec);
}

// Escapes the characters JSON strings cannot carry raw.
std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

// The counting hook: every plain operator new in the process, the server's
// shard threads included. Only the unaligned forms are replaced; the
// aligned ones keep pairing with the default implementation.
void* operator new(std::size_t n) {
  void* p = CountedAlloc(n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace af::perfbench {

uint64_t NowNs() { return ClockNs(CLOCK_MONOTONIC); }

uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

UntrackedScope::UntrackedScope() : prev_(t_untracked) { t_untracked = true; }
UntrackedScope::~UntrackedScope() { t_untracked = prev_; }

ProcessSample SampleProcess() {
  ProcessSample s;
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  s.voluntary_switches = static_cast<uint64_t>(ru.ru_nvcsw);
  s.allocs = AllocCount();
  s.process_cpu_ns = ClockNs(CLOCK_PROCESS_CPUTIME_ID);
  s.thread_cpu_ns = ClockNs(CLOCK_THREAD_CPUTIME_ID);
  s.wall_ns = NowNs();
  return s;
}

namespace {

// A numeric field of /proc/self/status ("Threads:", "VmHWM:"), or -1.
long StatusField(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0) {
      return std::atol(line.c_str() + n);
    }
  }
  return -1;
}

}  // namespace

// VmHWM, not getrusage's ru_maxrss: the latter survives execve, so under a
// launcher it can report the launcher's peak instead of this program's.
double PeakRssMiB() { return static_cast<double>(StatusField("VmHWM:")) / 1024.0; }

int ThreadCount() { return static_cast<int>(StatusField("Threads:")); }

std::string HostFingerprintJson(const std::string& workload, uint64_t seed) {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        cpu = line.substr(colon + 1);
        cpu.erase(0, cpu.find_first_not_of(' '));
      }
      break;
    }
  }
  struct utsname uts;
  std::string kernel = "unknown";
  if (uname(&uts) == 0) {
    kernel = std::string(uts.sysname) + " " + uts.release + " " + uts.machine;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%ld", sysconf(_SC_NPROCESSORS_ONLN));
  return "{\"nproc\": " + std::string(buf) + ", \"cpu\": " + JsonString(cpu) +
         ", \"kernel\": " + JsonString(kernel) +
         ", \"build_type\": " + JsonString(AF_PERFBENCH_BUILD_TYPE) +
         ", \"workload\": " + JsonString(workload) + ", \"seed\": " + std::to_string(seed) + "}";
}

}  // namespace af::perfbench

// libafprof: an in-process sampling profiler, loaded with LD_PRELOAD, for
// hosts without perf. scripts/afprof.py runs a command under it and turns
// the samples into a per-function CPU report.
//
// At load it arms ITIMER_PROF, which fires on process CPU time (all
// threads, user and kernel). The kernel delivers each SIGPROF to the
// thread whose tick expired the timer, so a thread blocked in a syscall is
// never interrupted by it. The handler stores the interrupted program
// counter in a fixed array: no allocation, no lock, one relaxed atomic
// increment. A sample taken while a thread is inside a system call lands
// on the libc wrapper's return address, so kernel time is charged to the
// wrapper (read, sendmsg, epoll_wait, ...).
//
// At exit it writes $AFPROF_DIR/afprof.<pid>.txt (AFPROF_DIR defaults to
// the working directory): a "# afprof" header, then one "module offset"
// line per sample, where offset is the module-relative address that
// addr2line expects. Processes that never took a sample write nothing.
//
// Limits: the timer is asked for 1 kHz but expires on the kernel tick, so
// a host with HZ=100 yields about 100 samples per CPU-second - profile
// runs of 30 s or more. Symbolization of a stripped libc sees only its
// exported symbols, so internal variants (__memmove_avx_unaligned_erms,
// __memset_avx2...) are charged to the nearest exported name.
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace {

constexpr size_t kMaxSamples = size_t{1} << 20;
constexpr long kIntervalUs = 1000;

uintptr_t g_pcs[kMaxSamples];
std::atomic<size_t> g_next{0};
bool g_armed = false;

uintptr_t InterruptedPc(const void* uctx) {
  const auto* uc = static_cast<const ucontext_t*>(uctx);
#if defined(__x86_64__)
  return static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<uintptr_t>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return 0;
#endif
}

void OnProfSignal(int, siginfo_t*, void* uctx) {
  const size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) {
    g_pcs[i] = InterruptedPc(uctx);
  }
}

// A fork child inherits the samples but not the timer: start it empty.
void ForgetInheritedSamples() { g_next.store(0, std::memory_order_relaxed); }

void SetTimer(long interval_us) {
  struct itimerval it = {};
  it.it_interval.tv_usec = interval_us;
  it.it_value.tv_usec = interval_us;
  setitimer(ITIMER_PROF, &it, nullptr);
}

__attribute__((constructor)) void Arm() {
  struct sigaction sa = {};
  sa.sa_sigaction = OnProfSignal;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) {
    return;
  }
  pthread_atfork(nullptr, nullptr, ForgetInheritedSamples);
  SetTimer(kIntervalUs);
  g_armed = true;
}

struct Module {
  std::string path;
  uintptr_t bias = 0;
  std::vector<std::pair<uintptr_t, uintptr_t>> ranges;  // executable PT_LOADs
};

int CollectModule(struct dl_phdr_info* info, size_t, void* data) {
  auto* modules = static_cast<std::vector<Module>*>(data);
  Module m;
  m.path = info->dlpi_name != nullptr ? info->dlpi_name : "";
  if (modules->empty() && m.path.empty()) {
    char exe[PATH_MAX];
    const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    m.path = n > 0 ? std::string(exe, static_cast<size_t>(n)) : "[exe]";
  }
  m.bias = info->dlpi_addr;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type == PT_LOAD && (ph.p_flags & PF_X) != 0) {
      m.ranges.emplace_back(m.bias + ph.p_vaddr, m.bias + ph.p_vaddr + ph.p_memsz);
    }
  }
  if (!m.path.empty() && !m.ranges.empty()) {
    modules->push_back(std::move(m));
  }
  return 0;
}

__attribute__((destructor)) void WriteProfile() {
  if (!g_armed) {
    return;
  }
  SetTimer(0);
  signal(SIGPROF, SIG_IGN);
  const size_t taken = g_next.load(std::memory_order_relaxed);
  const size_t n = taken < kMaxSamples ? taken : kMaxSamples;
  if (n == 0) {
    return;
  }
  std::vector<Module> modules;
  dl_iterate_phdr(CollectModule, &modules);

  const char* dir = std::getenv("AFPROF_DIR");
  const std::string path = std::string(dir != nullptr && dir[0] != '\0' ? dir : ".") +
                           "/afprof." + std::to_string(getpid()) + ".txt";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return;
  }
  std::fprintf(f, "# afprof pid=%d exe=%s samples=%zu dropped=%zu interval_us=%ld\n",
               static_cast<int>(getpid()), modules.empty() ? "?" : modules[0].path.c_str(), n,
               taken - n, kIntervalUs);
  for (size_t i = 0; i < n; ++i) {
    const uintptr_t pc = g_pcs[i];
    const Module* hit = nullptr;
    for (const Module& m : modules) {
      for (const auto& [lo, hi] : m.ranges) {
        if (pc >= lo && pc < hi) {
          hit = &m;
          break;
        }
      }
      if (hit != nullptr) {
        break;
      }
    }
    if (hit != nullptr) {
      std::fprintf(f, "%s 0x%lx\n", hit->path.c_str(),
                   static_cast<unsigned long>(pc - hit->bias));
    } else {
      std::fprintf(f, "? 0x%lx\n", static_cast<unsigned long>(pc));
    }
  }
  std::fclose(f);
}

}  // namespace

// Process-level counters the benchmark binary takes about itself: a
// nanosecond monotonic clock, CPU clocks, getrusage, an operator-new
// counting hook, and the host fingerprint printed with every result.
#ifndef AF_PERFBENCH_PROCESS_H_
#define AF_PERFBENCH_PROCESS_H_

#include <cstdint>
#include <string>

namespace af::perfbench {

// CLOCK_MONOTONIC in nanoseconds.
uint64_t NowNs();

// Heap allocations (operator new calls) made by the whole process so far,
// not counting those made while an UntrackedScope is live on the calling
// thread.
uint64_t AllocCount();

// Excludes the benchmark's own bookkeeping allocations on this thread
// (e.g. the pacer's RunOnLoop closure) from AllocCount().
class UntrackedScope {
 public:
  UntrackedScope();
  ~UntrackedScope();
  UntrackedScope(const UntrackedScope&) = delete;
  UntrackedScope& operator=(const UntrackedScope&) = delete;

 private:
  bool prev_;
};

// One reading of the process counters.
struct ProcessSample {
  uint64_t wall_ns = 0;
  uint64_t process_cpu_ns = 0;  // CLOCK_PROCESS_CPUTIME_ID: every thread
  uint64_t thread_cpu_ns = 0;   // CLOCK_THREAD_CPUTIME_ID: the calling thread
  uint64_t voluntary_switches = 0;
  uint64_t allocs = 0;
};
ProcessSample SampleProcess();

// Peak resident set size so far, MiB (VmHWM).
double PeakRssMiB();

// Threads currently in this process (/proc/self/status).
int ThreadCount();

// One-line JSON object naming the host and build: nproc, CPU model,
// kernel, build type, plus the given workload and seed.
std::string HostFingerprintJson(const std::string& workload, uint64_t seed);

}  // namespace af::perfbench

#endif  // AF_PERFBENCH_PROCESS_H_

// The server's task mechanism.
//
// Instead of threads, the AudioFile server schedules procedures for
// execution at future times, outside the main flow of control (CRL 93/8
// Section 7.3.1: NewTask / AddTask). Tasks drive the periodic device
// update and resume partially completed (blocked) client requests. The
// main loop asks the queue how long WaitForSomething may sleep.
#ifndef AF_SERVER_TASK_H_
#define AF_SERVER_TASK_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace af {

class TaskQueue {
 public:
  using TaskProc = std::function<void()>;

  // Schedules proc to run once system time reaches run_at_us.
  void AddAt(uint64_t run_at_us, TaskProc proc);
  // Schedules proc to run ms milliseconds from now_us.
  void AddIn(uint64_t now_us, uint64_t ms, TaskProc proc);

  // Milliseconds the caller may sleep before the next task is due;
  // -1 when no tasks are pending (sleep until I/O).
  int NextTimeoutMs(uint64_t now_us) const;

  // Runs every task whose deadline has passed. Tasks added while running
  // (e.g. an update task rescheduling itself) are not run until their own
  // deadline arrives.
  void RunDue(uint64_t now_us);

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

 private:
  struct Entry {
    uint64_t run_at_us;
    uint64_t seq;  // stable FIFO order among equal deadlines
    TaskProc proc;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.run_at_us != b.run_at_us) {
        return a.run_at_us > b.run_at_us;
      }
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::vector<TaskProc> due_;  // RunDue's batch; keeps its capacity
  uint64_t next_seq_ = 0;
};

}  // namespace af

#endif  // AF_SERVER_TASK_H_

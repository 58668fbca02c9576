#include "server/task.h"

#include <utility>

namespace af {

void TaskQueue::AddAt(uint64_t run_at_us, TaskProc proc) {
  heap_.push(Entry{run_at_us, next_seq_++, std::move(proc)});
}

void TaskQueue::AddIn(uint64_t now_us, uint64_t ms, TaskProc proc) {
  AddAt(now_us + ms * 1000u, std::move(proc));
}

int TaskQueue::NextTimeoutMs(uint64_t now_us) const {
  if (heap_.empty()) {
    return -1;
  }
  const uint64_t due = heap_.top().run_at_us;
  if (due <= now_us) {
    return 0;
  }
  const uint64_t delta_ms = (due - now_us + 999) / 1000;
  return delta_ms > 60000 ? 60000 : static_cast<int>(delta_ms);
}

void TaskQueue::RunDue(uint64_t now_us) {
  // Bound the sweep to tasks already due at entry; a task that reschedules
  // itself for "now" must not spin this loop forever.
  while (!heap_.empty() && heap_.top().run_at_us <= now_us) {
    due_.push_back(std::move(const_cast<Entry&>(heap_.top()).proc));
    heap_.pop();
  }
  for (TaskProc& proc : due_) {
    proc();
  }
  due_.clear();
}

}  // namespace af

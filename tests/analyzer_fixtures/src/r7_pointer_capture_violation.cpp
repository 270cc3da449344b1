// rbs-analyze-fixture-expect: R7
// A pointer to a pooled event slot smuggled into a scheduled callback via
// an init-capture dodges R5 (no by-reference capture) but not the lifetime
// hazard: the slot is recycled when its event fires or is cancelled and
// reused for the next callback — the classic use-after-recycle.
#include <cstddef>

struct SimTime {};

struct EventPool {
  struct Slot {
    int value = 0;
    void fire();
  };
  Slot& operator[](std::size_t i);
};

struct Sim {
  template <typename F>
  void schedule_after(SimTime delay, F fn);
};

void arm_probe(Sim& sim, EventPool& pool, std::size_t idx) {
  EventPool::Slot& slot = pool[idx];
  sim.schedule_after(SimTime{}, [p = &slot] {  // R7: slot outlived by event
    p->fire();
  });
}

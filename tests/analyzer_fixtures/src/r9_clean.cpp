// rbs-analyze-fixture-expect:
// Clean twin of r9_violation.cpp: every literal metric/trace name appears
// in the fixture docs/observability.md reference, runtime-built names are
// out of scope, and a deliberate exception carries a suppression.
struct Counter {
  void add(unsigned long n);
};
struct Registry {
  Counter& counter(const char* name);
};
struct Trace {
  void instant(const char* cat, const char* name, long ts);
};

const char* reason_name();

void emit(Registry& reg, Trace* tr) {
  reg.counter("link.drops").add(1);
  tr->instant("tcp", "timeout", 0);
  tr->instant("queue", reason_name(), 0);  // runtime name: out of scope
  if (auto* t = tr) t->instant("tcp", "timeout", 0);
  // rbs-analyze: allow(R9) -- experimental gauge, intentionally undocumented
  reg.counter("engine.prototype_counter").add(1);
}

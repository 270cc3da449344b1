// rbs-analyze-fixture-expect: R9 R9 R9
// Metric and trace names invented at the emit site without being added to
// the docs reference table: the registry gauge, one trace instant's event
// name and another's category are all undocumented. Documented names
// ("engine.events_pending", "queue"/"drop") and runtime-built names are
// fine.
struct Gauge {
  void set(double v);
};
struct Registry {
  Gauge& gauge(const char* name);
};
struct Trace {
  void instant(const char* cat, const char* name, long ts);
};

void emit(Registry& reg, Trace* tr, const char* dynamic_name) {
  reg.gauge("engine.events_pending").set(1.0);  // documented: fine
  reg.gauge("engine.secret_knob").set(2.0);     // R9: not in the reference
  tr->instant("queue", "drop", 0);              // documented: fine
  tr->instant("queue", "sideways-drop", 0);     // R9: undocumented event name
  tr->instant("queue", dynamic_name, 0);        // runtime name: out of scope
  if (auto* t = tr) t->instant("shadow", "timeout", 0);  // R9: undocumented category
}

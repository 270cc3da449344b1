// Negative thread-safety fixture: reads ONE guarded SweepBatchState field
// without holding the mutex. scripts/check_thread_safety.py compiles this
// once per guarded field with -DRBS_TSA_FIELD=<field> and requires each
// compilation to FAIL with a -Wthread-safety error. If a compilation
// succeeds, the field's RBS_GUARDED_BY annotation in
// src/experiment/dispatch_protocol.hpp has been removed — which is the build
// failure this fixture exists to produce.
#include "experiment/dispatch_protocol.hpp"

#ifndef RBS_TSA_FIELD
#error "compile with -DRBS_TSA_FIELD=<guarded field name>"
#endif

void unguarded_read(rbs::experiment::detail::SweepBatchState& state) {
  // No lock held: the copy reads the field and must be rejected by the
  // thread-safety analysis, whatever the field's type.
  const auto copy = state.RBS_TSA_FIELD;
  (void)copy;
}

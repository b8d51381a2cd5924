// Negative fixture for gistcr_lint rule `env-override`: a setting read
// from the environment forks the engine into a configuration no test or
// benchmark runs. Make it an options field or a named constant.
//
// The call below is split by a line splice, which the compiler joins
// before it reads the name, so the rule must join it too. Written this
// way, the function's name appears nowhere in the tree as plain text.
//
// Not compiled; consumed by `gistcr_lint.py --self-test tests/lint`.

#include <cstdlib>

namespace gistcr {

bool BadTraceRingSwitch() {
  // VIOLATION: the environment overrides the shipped default.
  const char* v = std::get\
env("TRACE_RING");
  return v != nullptr;
}

}  // namespace gistcr

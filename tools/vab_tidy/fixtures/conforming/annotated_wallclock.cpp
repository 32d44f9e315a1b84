// Conforming: a deliberate wall-clock read, annotated with the check id and
// the reason the determinism contract is not at risk. The watchdog only logs
// elapsed time; it never feeds results.
#include <chrono>

namespace vab::fixture {

double watchdog_elapsed_s(
    std::chrono::steady_clock::time_point start) {  // vab-tidy: allow(no-wallclock) logs
  // vab-tidy: allow(no-wallclock) watchdog only logs, never feeds results
  const auto now = std::chrono::steady_clock::now();
  // vab-tidy: allow(no-wallclock) duration math on already-sampled points
  return std::chrono::duration<double>(now - start).count();
}

}  // namespace vab::fixture

// mhb-lint: path(src/obs/fixture_live.cc)
// Fixture: src/obs is not blanket-exempt from the wall-clock rules — only
// the manifest timestamp helper is.  Any other telemetry code under src/obs
// (a progress writer, a server) must either avoid wall time or carry a
// justified allow.
#include <chrono>
#include <ctime>

long BareStamp() {
  long t = std::time(nullptr);  // expect: no-time-call
  auto wall =
      std::chrono::system_clock::now();  // expect: no-system-clock
  return t + wall.time_since_epoch().count();
}

long WaivedStamp() {
  // mhb-lint: allow(no-time-call) -- fixture: a progress timestamp is operator telemetry only
  return static_cast<long>(std::time(nullptr));
}

long Monotonic() {
  return std::chrono::steady_clock::now().time_since_epoch().count();  // legal
}

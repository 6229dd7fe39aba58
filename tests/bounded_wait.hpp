// Bounded wait for calls that may hang: a runtime stuck in a livelock or a
// lost wake-up cannot be cancelled, so a test that would otherwise sit until
// the ctest timeout exits the binary with a failure once its deadline passes.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

namespace rdp::test {

/// Run `f` on a helper thread and return when it finishes, rethrowing
/// whatever it threw. If `f` is still running after `limit`, print `what`
/// and exit the process with status 1 (the hung thread cannot be joined).
template <class F>
void within(std::chrono::milliseconds limit, const char* what, F&& f) {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  std::exception_ptr error;
  std::thread worker([&] {
    try {
      f();
    } catch (...) {
      error = std::current_exception();
    }
    std::scoped_lock lock(m);
    done = true;
    cv.notify_one();
  });
  {
    std::unique_lock lock(m);
    if (!cv.wait_for(lock, limit, [&] { return done; })) {
      std::fprintf(stderr, "FAILED: %s did not return within %lld ms\n", what,
                   static_cast<long long>(limit.count()));
      std::fflush(stderr);
      std::_Exit(1);
    }
  }
  worker.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace rdp::test

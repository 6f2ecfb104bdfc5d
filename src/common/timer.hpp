// Wall-clock timer for benchmarking simulator and optimizer stages.
#pragma once

#include <chrono>

namespace lcn {

class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Seconds elapsed since construction.
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace lcn

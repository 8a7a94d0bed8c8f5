// The reference kernel: a fixed piece of benchmark-owned work (heap,
// hash-map and allocation churn, ~5 ms) timed right before every cell run.
// On a shared host the speed of a core drifts by up to ~1.9x for seconds to
// minutes at a time; the drift hits the kernel and the cell that follows
// it alike, so a cell's time divided by the kernel's time stays put where
// raw seconds do not. The kernel never changes with the library, so the
// ratio compares two versions of the library on equal terms.
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfbench {

/// The kernel's fastest time on one core of the host the benchmark was
/// defined on (4-core x86-64 VM, GCC 12.2, Release): 400 runs, min 3.25 ms,
/// median 3.47 ms.
inline constexpr double kReferenceSeconds = 0.00325;

/// `seconds` measured right after a one-thread kernel run that took
/// `reference_s`, rescaled to the speed at which the kernel takes
/// kReferenceSeconds.
inline double at_reference_speed(double seconds, double reference_s) {
  return seconds / reference_s * kReferenceSeconds;
}

/// Checksum every run of the kernel must produce.
std::uint64_t reference_checksum();

/// Runs the kernel on `threads` threads at once (the caller's thread plus
/// threads - 1 others, matching a sharded cell) and returns the wall time
/// until all have finished. Throws if a checksum is wrong.
double reference_seconds(std::size_t threads);

}  // namespace perfbench

#include "reference.hpp"

#include <functional>
#include <queue>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "trace.hpp"

namespace perfbench {

namespace {

std::uint64_t kernel() {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {  // xorshift64
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap;
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < 18'000; ++i) {
    const std::uint64_t v = next();
    heap.push(v & 0xfffff);
    map[v & 0x3ffff] += i;
    if (heap.size() > 4'000) {
      acc += heap.top();
      heap.pop();
    }
    const std::vector<std::uint32_t> scratch(16 + (v & 63),
                                             static_cast<std::uint32_t>(i));
    acc += scratch.back();
  }
  return acc + map.size();
}

}  // namespace

std::uint64_t reference_checksum() {
  static const std::uint64_t expected = kernel();
  return expected;
}

double reference_seconds(std::size_t threads) {
  const std::uint64_t expected = reference_checksum();
  if (threads == 0) threads = 1;
  std::vector<std::uint64_t> sums(threads, 0);
  const std::uint64_t t0 = mono_ns();
  {
    std::vector<std::jthread> others;
    for (std::size_t t = 1; t < threads; ++t) {
      others.emplace_back([&sums, t] { sums[t] = kernel(); });
    }
    sums[0] = kernel();
  }  // joins
  const double seconds = static_cast<double>(mono_ns() - t0) * 1e-9;
  for (std::uint64_t s : sums) {
    if (s != expected) throw std::logic_error("reference kernel checksum");
  }
  return seconds;
}

}  // namespace perfbench

#include "host_gauge.h"

#include <utility>

#include "probes.h"

namespace perfbench {
namespace {

// 256K slots of 4 bytes (1 MiB): the table fits the core's L2 cache, and a
// sequential read before each timed walk brings it there, so the walk's
// speed never depends on what the rounds before it left in the caches.
constexpr uint32_t kSlots = 1u << 18;
// Steps per sample: about 40 ms on the measuring host.
constexpr int kSteps = 1'000'000;
// Arithmetic per step, so the core's own speed counts as well as the
// cache's.
constexpr int kMixRounds = 16;

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

HostGauge::HostGauge() : next_(kSlots) {
  // Sattolo's shuffle of the identity: one cycle through every slot in
  // random order, which no prefetcher can follow, so every step waits for
  // its load.
  for (uint32_t i = 0; i < kSlots; ++i) next_[i] = i;
  uint64_t state = 0x5EED;
  for (uint32_t i = kSlots - 1; i > 0; --i) {
    uint32_t j = static_cast<uint32_t>(SplitMix64(&state) % i);
    std::swap(next_[i], next_[j]);
  }
}

double HostGauge::Sample() {
  uint64_t h = sink_;
  for (uint32_t slot : next_) h += slot;
  Clock::time_point start = Clock::now();
  uint32_t p = pos_;
  // `zero_` is 0, but the compiler cannot know it: each load waits for the
  // previous step's arithmetic, so cache and core times add up.
  const uint32_t zero = zero_;
  for (int i = 0; i < kSteps; ++i) {
    p = next_[p ^ (static_cast<uint32_t>(h) & zero)];
    h ^= p;
    for (int k = 0; k < kMixRounds; ++k) {
      h = (h ^ (h >> 29)) * 0xBF58476D1CE4E5B9ULL;
    }
  }
  pos_ = p;
  sink_ = h;
  return SecondsSince(start);
}

}  // namespace perfbench

// A fixed piece of work, apart from the library, that tells how fast the
// host runs at the moment. The benchmark shares a few cores of a busy host
// whose speed drifts by tens of percent over minutes, and every round time
// drifts with it. Sampling this gauge between rounds measures that drift so
// the round times can be stated at one reference speed (see README.md,
// "Host speed"). Nothing the library does can change the gauge's own work:
// it allocates once, up front, and touches no library code.
#ifndef PERFBENCH_SRC_HOST_GAUGE_H_
#define PERFBENCH_SRC_HOST_GAUGE_H_

#include <cstdint>
#include <vector>

namespace perfbench {

class HostGauge {
 public:
  /// Builds the gauge's table (1 MiB). Build it after the cold set-up has
  /// been timed.
  HostGauge();

  /// Times one pass of the fixed work, in seconds.
  double Sample();

 private:
  std::vector<uint32_t> next_;  // One cycle through every slot.
  uint32_t pos_ = 0;
  uint64_t sink_ = 0;
  uint32_t zero_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HOST_GAUGE_H_

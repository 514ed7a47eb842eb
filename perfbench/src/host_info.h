// The host and build a result was measured on, printed with every result:
// single runs on a shared host vary about 2x, so only interleaved medians
// from the same host and build compare.

#ifndef PERFBENCH_SRC_HOST_INFO_H_
#define PERFBENCH_SRC_HOST_INFO_H_

#include <string>

namespace perfbench {

// One-line JSON object: nproc, L2/L3 cache bytes, compiler, build type and
// whether __OPTIMIZE__ was defined.
std::string HostInfoJson();

// Peak resident set of this process image so far (VmHWM), in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HOST_INFO_H_

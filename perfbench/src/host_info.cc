#include "perfbench/src/host_info.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/common/check.h"

namespace perfbench {

std::string HostInfoJson() {
#ifdef __OPTIMIZE__
  const char* optimize = "true";
#else
  const char* optimize = "false";
#endif
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %ld, \"l2_bytes\": %ld, \"l3_bytes\": %ld, "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"optimize\": %s}",
                sysconf(_SC_NPROCESSORS_ONLN), sysconf(_SC_LEVEL2_CACHE_SIZE),
                sysconf(_SC_LEVEL3_CACHE_SIZE), __VERSION__,
                PERFBENCH_BUILD_TYPE, optimize);
  return buf;
}

double PeakRssMb() {
  // VmHWM belongs to this process image. getrusage's ru_maxrss would also
  // carry the peak of the parent that forked it (run.py): it survives exec.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  AMPERE_CHECK(status != nullptr) << "cannot read /proc/self/status";
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(status);
  AMPERE_CHECK(kb > 0.0) << "no VmHWM in /proc/self/status";
  return kb / 1024.0;
}

}  // namespace perfbench

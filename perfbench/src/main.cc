// Closed-loop benchmark: command-line entry point.
//
//   ampere_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   ampere_perfbench --workload <name> --seed <n> --print-fingerprint
//
// --trace 0 repeats untraced runs of the workload for --seconds and reports
// the end-to-end metrics. --trace 1 spends half of --seconds on untraced
// runs, then makes one traced run and reports the per-layer metrics. Every
// run's fingerprint must equal the pinned one for the seed (or, for an
// unpinned seed, the first run's); a mismatch is a failed operation. The
// last stdout line is the JSON result.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "perfbench/src/host_info.h"
#include "perfbench/src/runs.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  bool print_fingerprint = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-fingerprint") {
      args->print_fingerprint = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    char* rest = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      if (value[0] == '-') {
        std::fprintf(stderr, "--seed must not be negative\n");
        return false;
      }
      args->seed = std::strtoull(value, &rest, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &rest);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value, &rest, 10));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (rest != nullptr && *rest != '\0') {
      std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(), value);
      return false;
    }
  }
  if (args->workload.empty() || args->seconds <= 0.0 ||
      (args->trace != 0 && args->trace != 1)) {
    std::fprintf(stderr,
                 "usage: ampere_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return false;
  }
  return true;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-40s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return 2;
  }
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (args.print_fingerprint) {
    const UntracedRun run = RunUntraced(*workload, args.seed);
    std::printf("    {\"%s\", %llu, %s},\n", workload->name,
                static_cast<unsigned long long>(args.seed),
                run.fingerprint.ToString().c_str());
    return 0;
  }

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              workload->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  std::printf("host: %s\n", HostInfoJson().c_str());
  FingerprintCheck check(*workload, args.seed);
  std::printf("fingerprint reference: %s\n",
              check.pinned() ? "pinned for this seed"
                             : "unpinned seed, first run's");

  // A traced run spends half the window on untraced runs of the same seed:
  // the baseline for trace.overhead.
  const bool trace = args.trace == 1;
  const UntracedSummary untraced =
      RepeatUntraced(*workload, args.seed,
                     trace ? args.seconds / 2.0 : args.seconds, trace ? 1 : 3,
                     &check);
  std::vector<double> run_s;
  for (const UntracedRun& run : untraced.runs) {
    run_s.push_back(run.run_s);
  }
  std::printf("run_s over %zu runs: fastest %.4f, median %.4f, slowest %.4f, "
              "quiet (slice by slice) %.4f\n",
              run_s.size(), *std::min_element(run_s.begin(), run_s.end()),
              Median(run_s), *std::max_element(run_s.begin(), run_s.end()),
              QuietRunSeconds(untraced.runs));
  if (!trace) {
    PrintResult(check.failed() == 0, check.attempted(), check.failed(),
                EndToEndMetrics(untraced));
    return 0;
  }

  const TracedRun traced = RunTraced(*workload, args.seed);
  const bool traced_ok = check.Check(traced.fingerprint);
  std::printf("traced run: %.4f s, fingerprint %s\n", traced.wall_s,
              traced_ok ? "ok" : "MISMATCH");
  for (size_t k = 0; k < traced.steps.size(); ++k) {
    const TimingStats& st = traced.steps[k];
    std::printf("  %-13s n=%-9llu p50 %8.0f ns  p%-6g %9.0f ns  total %.4f s\n",
                StepKindName(static_cast<StepKind>(k)),
                static_cast<unsigned long long>(st.n), st.p50_ns,
                st.tail_percentile, st.tail_ns, st.total_ns / 1e9);
  }
  const std::vector<Metric> metrics = LayerMetrics(traced, Median(run_s));
  const bool attributed =
      traced.steps[static_cast<size_t>(StepKind::kUnattributed)].n == 0;
  if (!attributed) {
    std::printf("TRACE ERROR: unattributed steps\n");
  }
  PrintResult(check.failed() == 0 && attributed, check.attempted(),
              check.failed(), metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ampere_perfbench: %s\n", e.what());
    return 1;
  }
}

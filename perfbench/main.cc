// End-to-end benchmark of the lidx serving stack.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: serve_read, serve_write, serve_scan (ShardedIndex<DynamicPgm>,
// three closed-loop clients on serve_read, one on the others) and
// tiered_disk (TieredIndex over compressed disk runs, one client). Every answer is checked. The last stdout line is
// one JSON object: the end-to-end metrics, or with --trace 1 the per-layer
// metrics of a traced run, each that the workload measured. run.py picks
// the ones BENCHMARK.json lists. README.md maps each metric to its layer.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_read|serve_write|serve_scan|tiered_disk --seed N "
               "--seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) Usage("missing value");
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 120.0) {
        Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("bad --trace");
      }
      args.trace = value[0] == '1';
    } else {
      Usage("unknown flag");
    }
  }
  if (args.workload != "serve_read" && args.workload != "serve_write" &&
      args.workload != "serve_scan" && args.workload != "tiered_disk") {
    Usage("unknown workload");
  }
  return args;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = Parse(argc, argv);
  const Outcome outcome =
      args.workload == "tiered_disk" ? RunTiered(args) : RunServe(args);

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const std::string& note : outcome.notes) {
    std::printf("  %s\n", note.c_str());
  }
  const Tally& tally = outcome.tally;
  std::printf("  failed_op_frac %.6g (%llu of %llu ops)\n",
              tally.attempted == 0 ? 1.0
                                   : static_cast<double>(tally.failed) /
                                         static_cast<double>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  const std::vector<Metric>& metrics =
      args.trace ? outcome.per_layer : outcome.end_to_end;
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = tally.attempted > 0 && tally.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

// lodbench — the lecture-on-demand benchmark binary.
//
//   lodbench --workload <s1_mixed|broadband|seek_migrate|loopback>
//            --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Runs the workload's rounds for the given seconds, checks the outputs, prints
// the human-readable tables, and ends with one JSON line:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1, which adds a traced pass and the layer probes). Exits nonzero
// when any correctness check fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: lodbench --workload <s1_mixed|broadband|seek_migrate|"
               "loopback> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n");
  return 2;
}

void print_json(const lodbench::WorkloadResult& r,
                const std::vector<lodbench::Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  lodbench::RunArgs a;
  a.out_dir = ".bench_build/lodbench-out";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 ||
      (a.workload != "loopback" && !lodbench::is_sim_workload(a.workload))) {
    return usage();
  }
  std::printf("lodbench: workload %s, seed %llu, %.0f s, trace %d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);

  lodbench::BenchSpans spans;
  lodbench::WorkloadResult r;
  try {
    r = a.workload == "loopback" ? lodbench::run_loopback(a, spans)
                                 : lodbench::run_sim_workload(a, spans);
    lodbench::write_jsonl(a.out_dir + "/bench-spans-" + a.workload + "-trace" +
                              (a.trace ? "1" : "0") + ".jsonl",
                          spans.finish());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lodbench: %s\n", e.what());
    return 1;
  }

  const auto& metrics = a.trace ? r.per_layer : r.end_to_end;
  std::printf("%-40s %16s %s\n", a.trace ? "per-layer metric" : "end-to-end metric",
              "value", "unit");
  for (const auto& m : metrics) {
    if (!std::isfinite(m.value)) r.fail(m.name + " is not finite");
    std::printf("%-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& v : r.violations) std::printf("VIOLATION: %s\n", v.c_str());
  std::fflush(stdout);
  print_json(r, metrics);
  return r.correct() ? 0 : 1;
}

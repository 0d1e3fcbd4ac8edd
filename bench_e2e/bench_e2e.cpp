// bench_e2e: the end-to-end and per-layer benchmark of fencetrade.
//
//   bench_e2e run --workload W --seed S [--seconds T] [--trace FILE]
//                 [--json FILE] [--expected FILE]
//       Run workload W (dpor-seq, dpor-par2, fleet2, repair) for T
//       seconds of passes (default 20): a closed loop, one job at a
//       time, each checked against its known answer.  Prints every
//       metric by name with its unit, then, as the last line, the
//       result object {"correct", "attempted", "failed", "metrics"}.
//       Without --trace the metrics are the end-to-end ones; with
//       --trace the run also records spans, profiles the expansion
//       stages, reports the per-layer metrics and writes a Chrome trace
//       to FILE.  --json FILE writes the full run report, the input of
//       `compare`.  Exit 0 when every job was correct, 1 when one was
//       not, 2 on a usage or set-up error (no result line).
//
//   bench_e2e compare A.json... -- B.json... [--benchmark FILE]
//       Judge B (the change) against A (the parent) per workload and
//       end-to-end metric; see compare.cpp.
//
//   bench_e2e --selftest [--expected FILE] [--benchmark FILE]
//       Tiny jobs of every engine through the same driver.
//
//   bench_e2e worker
//       Fleet shard-worker mode; the fleet re-execs this binary.
//
// Paths default to their place in a source checkout, relative to its
// root: bench_e2e/expected.json and BENCHMARK.json.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "compare.h"
#include "fleet/worker.h"
#include "run.h"
#include "selftest.h"
#include "util/subprocess.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e run --workload W --seed S [--seconds T] "
               "[--trace FILE] [--json FILE] [--expected FILE]\n"
               "       bench_e2e compare A.json... -- B.json... "
               "[--benchmark FILE]\n"
               "       bench_e2e --selftest [--expected FILE] "
               "[--benchmark FILE]\n"
               "workloads:");
  for (const bench::WorkloadDef& w : bench::workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parseNumber(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0' && out >= 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fencetrade;
  if (argc >= 2 && std::strcmp(argv[1], "worker") == 0) {
    return fleet::runWorker(util::kWorkerInFd, util::kWorkerOutFd);
  }
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::string expected = "bench_e2e/expected.json";
  std::string benchmark = "BENCHMARK.json";

  if (cmd == "compare") {
    std::vector<std::string> a, b;
    bool second = false;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--benchmark" && i + 1 < argc) {
        benchmark = argv[++i];
      } else if (arg == "--") {
        second = true;
      } else {
        (second ? b : a).push_back(arg);
      }
    }
    if (!second) return usage();
    return bench::runCompare(a, b, benchmark, stdout);
  }

  bench::RunOptions opts;
  opts.workerExe = util::selfExePath(argv[0]);
  std::string jsonPath;
  bool haveSeed = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    double num = 0;
    if (arg == "--workload" && cmd == "run") {
      opts.workload = bench::findWorkload(v);
      if (opts.workload == nullptr) return usage();
    } else if (arg == "--seed" && cmd == "run" && parseNumber(v, num)) {
      opts.seed = std::strtoull(v, nullptr, 10);
      haveSeed = true;
    } else if (arg == "--seconds" && cmd == "run" && parseNumber(v, num)) {
      opts.seconds = num;
    } else if (arg == "--trace" && cmd == "run") {
      opts.traced = true;
      opts.tracePath = v;
    } else if (arg == "--json" && cmd == "run") {
      jsonPath = v;
    } else if (arg == "--expected") {
      expected = v;
    } else if (arg == "--benchmark" && cmd == "--selftest") {
      benchmark = v;
    } else {
      return usage();
    }
  }
  opts.expectedPath = expected;
  if (cmd == "--selftest") {
    return bench::runSelftest(expected, benchmark, opts.workerExe);
  }
  if (cmd != "run" || opts.workload == nullptr || !haveSeed) return usage();

  const bench::RunResult r = bench::executeRun(opts, stdout);
  if (!r.completed) {
    std::fprintf(stderr, "bench_e2e: %s\n", r.error.c_str());
    return 2;
  }
  if (!jsonPath.empty()) {
    std::ofstream f(jsonPath, std::ios::binary | std::ios::trunc);
    f << r.reportJson << '\n';
    if (!f) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", jsonPath.c_str());
      return 2;
    }
  }
  std::printf("%s\n", bench::resultLine(r, opts.traced).c_str());
  std::fflush(stdout);
  return r.correct() ? 0 : 1;
}

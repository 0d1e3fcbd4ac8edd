#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace bench {

/// Compare two sets of untraced run reports (A = parent, B = change)
/// with the bounds of BENCHMARK.json.  Prints one row per (workload,
/// end-to-end metric) and a verdict per workload.  Returns 0 when
/// nothing regressed, 1 when something did, 2 when the reports cannot
/// be compared (different hosts, builds, seeds or run lengths).
int runCompare(const std::vector<std::string>& filesA,
               const std::vector<std::string>& filesB,
               const std::string& benchmarkPath, std::FILE* out);

}  // namespace bench

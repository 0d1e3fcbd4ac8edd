// One benchmark run: set-up, timed passes, the optional stage profile,
// and the metrics they yield.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "workloads.h"

namespace bench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;  ///< shown beside the value (sample count, scope)
};

/// What set-up produced: the known answers and the jobs built from
/// them (each Job::answer points into `answers`).
struct Setup {
  KnownAnswers answers;
  std::vector<Job> jobs;
};

struct RunOptions {
  const WorkloadDef* workload = nullptr;
  std::uint64_t seed = 1;
  /// Passes run until this much time has been spent in them; the pass
  /// in flight completes.
  double seconds = 20.0;
  /// Traced run: spans, the stage profile and the per-layer metrics.
  bool traced = false;
  std::string tracePath;  ///< Chrome trace output (traced runs)
  std::string expectedPath;
  std::string workerExe;  ///< this binary, re-exec'd as the fleet worker
  /// Test seam: edits the set-up before the timed passes (the self-test
  /// plants wrong answers and throwing jobs through it).
  std::function<void(Setup&)> plant;
};

struct RunResult {
  /// Set-up succeeded and the trace, if asked for, was written;
  /// otherwise `error` says why and no result may be reported.
  bool completed = false;
  std::string error;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< "job id: reason", one per failure
  std::vector<Metric> endToEnd;
  std::vector<Metric> perLayer;  ///< traced runs only
  std::string reportJson;        ///< the full run report
  bool correct() const { return completed && failed == 0; }
};

/// Execute one run, printing progress and the metric table to `log`.
RunResult executeRun(const RunOptions& opts, std::FILE* log);

/// The result line: {"correct", "attempted", "failed", "metrics"}, with
/// the end-to-end metrics (untraced) or the per-layer metrics (traced).
std::string resultLine(const RunResult& r, bool traced);

}  // namespace bench

// Workloads, known answers and the job runner.
//
// A workload is a fixed list of four job kinds.  Each kind names its
// (system, fence strip) jobs from the known-answer catalogue
// (expected.json) and the public call that runs them: sim::explore
// (sequential or 2-thread source-DPOR), fleet::runFleet (2 worker
// processes) or check::repairMutualExclusion.  The seed shuffles the
// job order of every pass; the program only ever sees the built
// Systems.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fleet/protocol.h"
#include "sim/explore.h"
#include "sim/machine.h"

namespace bench {

namespace ft = fencetrade;

using Outcomes = std::set<std::vector<ft::sim::Value>>;

/// One system of the known-answer catalogue.
struct SystemAnswer {
  std::string id;
  ft::fleet::JobSpec spec;
  Outcomes outcomes;
  std::uint64_t dporSeqStates = 0;  ///< 0 = not pinned
  std::uint64_t oracleStates = 0;   ///< 0 = not pinned
};

struct RepairAnswer {
  std::string verdict;  ///< check::verdictName of the report
  std::int64_t bestBeta = 0;
};

struct KnownAnswers {
  std::map<std::string, SystemAnswer> systems;
  /// Keyed by (system id, stripped fence index).
  std::map<std::pair<std::string, int>, RepairAnswer> repairs;
};

std::optional<KnownAnswers> loadKnownAnswers(const std::string& path,
                                             std::string* err);

enum class Engine { ExploreSeq, ExplorePar2, Fleet2, Repair };

/// The public function a job of this engine calls.
const char* engineCall(Engine e);

struct JobRef {
  std::string system;
  int strip = -1;  ///< Repair only: fence index stripped first, -1 none
};

struct Kind {
  std::string label;
  Engine engine = Engine::ExploreSeq;
  std::vector<JobRef> jobs;
};

struct WorkloadDef {
  std::string name;
  std::vector<Kind> kinds;
};

/// The four benchmark workloads: dpor-seq, dpor-par2, fleet2, repair.
const std::vector<WorkloadDef>& workloads();
const WorkloadDef* findWorkload(const std::string& name);

/// One job of a run: a built System plus the answer its call must give.
struct Job {
  std::string id;
  int kind = 0;
  Engine engine = Engine::ExploreSeq;
  const SystemAnswer* answer = nullptr;
  RepairAnswer repair;  ///< Repair jobs only
  ft::sim::System sys;
  bool plantThrow = false;  ///< self-test: the call throws
};

/// Build every job's System (fences stripped for Repair jobs).  Fails
/// on a job without a pinned answer.
std::optional<std::vector<Job>> setupJobs(const WorkloadDef& w,
                                          const KnownAnswers& answers,
                                          std::string* err);

/// Job order of one pass: a seeded Fisher-Yates shuffle of 0..n-1.
std::vector<std::size_t> passOrder(std::size_t n, std::uint64_t seed,
                                   int pass);

/// What a job observed, timed from outside the public call.
struct JobRecord {
  int job = 0;  ///< index into the run's job list
  int pass = 0;
  double seconds = 0.0;
  std::string failure;  ///< empty when the job gave its known answer
  bool ok() const { return failure.empty(); }

  /// sim::explore jobs: the result's state count and telemetry.
  bool hasExplore = false;
  std::uint64_t states = 0;
  ft::sim::ExploreTelemetry telemetry;
  /// fleet::runFleet jobs.
  std::uint64_t fleetStates = 0;
  std::uint64_t fleetForwarded = 0;
  int respawns = 0;
  int protocolErrors = 0;
  /// check::repairMutualExclusion jobs.
  std::uint64_t candidates = 0;
  std::uint64_t screened = 0;
  std::uint64_t witnesses = 0;
};

/// Run one job; an exception thrown by the call is a failed job.
/// `workerExe` is the binary the fleet re-execs as its worker.
JobRecord runJob(const Job& job, const std::string& workerExe);

/// Empty when an exhaustive explore-style result matches the answer.
std::string checkExplore(const SystemAnswer& answer,
                         const ft::sim::ExploreResult& res,
                         std::uint64_t pinnedStates);

}  // namespace bench

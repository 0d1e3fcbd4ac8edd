#include "workloads.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <stdexcept>

#include "check/inject.h"
#include "check/repair.h"
#include "check/verdict.h"
#include "fleet/coordinator.h"
#include "fleet/jobspec.h"
#include "json.h"
#include "util/runcontrol.h"

namespace bench {

namespace {

Outcomes permutations(int n) {
  std::vector<ft::sim::Value> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
  Outcomes out;
  do {
    out.insert(v);
  } while (std::next_permutation(v.begin(), v.end()));
  return out;
}

std::optional<Outcomes> parseOutcomes(const Json& j, int n) {
  if (j.isString() && j.string == "permutations") return permutations(n);
  if (!j.isArray()) return std::nullopt;
  Outcomes out;
  for (const Json& t : j.array) {
    if (!t.isArray() || t.array.size() != static_cast<std::size_t>(n)) {
      return std::nullopt;
    }
    std::vector<ft::sim::Value> v;
    for (const Json& x : t.array) {
      if (!x.isNumber()) return std::nullopt;
      v.push_back(static_cast<ft::sim::Value>(x.number));
    }
    out.insert(std::move(v));
  }
  return out;
}

Kind kind(std::string label, Engine engine, const std::string& system,
          std::vector<int> strips = {-1}) {
  Kind k{std::move(label), engine, {}};
  for (const int s : strips) k.jobs.push_back({system, s});
  return k;
}

}  // namespace

std::optional<KnownAnswers> loadKnownAnswers(const std::string& path,
                                             std::string* err) {
  const auto doc = readJsonFile(path, err);
  if (!doc) return std::nullopt;
  auto bad = [&](const std::string& what) -> std::optional<KnownAnswers> {
    if (err) *err = path + ": " + what;
    return std::nullopt;
  };
  if (doc->str("schema") != "bench_e2e-expected/1") {
    return bad("unknown schema");
  }
  KnownAnswers k;
  const Json* systems = doc->get("systems");
  if (systems == nullptr || !systems->isArray()) return bad("no systems");
  for (const Json& s : systems->array) {
    SystemAnswer a;
    a.id = s.str("id");
    a.spec.lock = s.str("lock");
    a.spec.model = s.str("model");
    a.spec.n = static_cast<int>(s.num("n"));
    a.spec.crashBudget = static_cast<int>(s.num("crash"));
    a.dporSeqStates = static_cast<std::uint64_t>(s.num("dpor_seq_states"));
    a.oracleStates = static_cast<std::uint64_t>(s.num("oracle_states"));
    if (a.spec.n < 2 || a.spec.n > 6) return bad("n out of range in " + a.id);
    if (a.id.empty()) return bad("system entry without id");
    // Repair-only systems carry no outcome set; an explore job on one
    // fails its outcome check.
    if (const Json* o = s.get("outcomes")) {
      auto outcomes = parseOutcomes(*o, a.spec.n);
      if (!outcomes) return bad("bad outcomes in " + a.id);
      a.outcomes = std::move(*outcomes);
    }
    const std::string id = a.id;
    if (!k.systems.emplace(id, std::move(a)).second) {
      return bad("duplicate system " + id);
    }
  }
  const Json* repairs = doc->get("repair");
  if (repairs == nullptr || !repairs->isArray()) return bad("no repair list");
  for (const Json& r : repairs->array) {
    const std::string sys = r.str("system");
    const int strip = static_cast<int>(r.num("strip", -1));  // -1: none
    if (!k.systems.count(sys) || strip < -1 || !r.get("best_beta")) {
      return bad("bad repair entry for " + sys);
    }
    k.repairs[{sys, strip}] =
        RepairAnswer{r.str("verdict"),
                     static_cast<std::int64_t>(r.num("best_beta"))};
  }
  return k;
}

const char* engineCall(Engine e) {
  switch (e) {
    case Engine::ExploreSeq:
    case Engine::ExplorePar2: return "sim::explore";
    case Engine::Fleet2: return "fleet::runFleet";
    case Engine::Repair: return "check::repairMutualExclusion";
  }
  return "?";
}

const std::vector<WorkloadDef>& workloads() {
  // README.md gives the reason for every job list.
  static const std::vector<WorkloadDef> defs = {
      {"dpor-seq",
       {kind("gt2-n3", Engine::ExploreSeq, "gt2-PSO-3"),
        kind("gt2-n4", Engine::ExploreSeq, "gt2-PSO-4"),
        kind("peterson-n4", Engine::ExploreSeq, "peterson-PSO-4"),
        kind("rtas-n3-c1", Engine::ExploreSeq, "rtas-PSO-3-c1")}},
      {"dpor-par2",
       {kind("gt2-n3", Engine::ExplorePar2, "gt2-PSO-3"),
        kind("peterson-n3", Engine::ExplorePar2, "peterson-PSO-3"),
        kind("bakery-n3", Engine::ExplorePar2, "bakery-PSO-3"),
        kind("rtas-n3-c1", Engine::ExplorePar2, "rtas-PSO-3-c1")}},
      {"fleet2",
       {kind("gt2-n3", Engine::Fleet2, "gt2-PSO-3"),
        kind("peterson-n3", Engine::Fleet2, "peterson-PSO-3"),
        kind("bakery-n3", Engine::Fleet2, "bakery-PSO-3"),
        kind("gt2-n2", Engine::Fleet2, "gt2-PSO-2")}},
      // Per fenced lock, one strip that needs a repair and one that needs
      // none; peterson-tso is broken under PSO as published (no strip).
      {"repair",
       {kind("gt2-n3", Engine::Repair, "gt2-PSO-3", {1, 2}),
        kind("peterson-tso-n3", Engine::Repair, "peterson-tso-PSO-3",
             {-1, 2}),
        kind("peterson-n3", Engine::Repair, "peterson-PSO-3", {0, 4}),
        kind("bakery-n3", Engine::Repair, "bakery-PSO-3", {1, 5})}},
  };
  return defs;
}

const WorkloadDef* findWorkload(const std::string& name) {
  for (const WorkloadDef& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

/// splitmix64 finalizer over (seed, stream).
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

std::vector<std::size_t> passOrder(std::size_t n, std::uint64_t seed,
                                   int pass) {
  // Fisher-Yates with our own generator, so the order is the same on
  // every platform and standard library.
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  std::uint64_t state = mix(seed, static_cast<std::uint64_t>(pass));
  for (std::size_t i = n; i > 1; --i) {
    state = mix(state, i);
    std::swap(idx[i - 1], idx[state % i]);
  }
  return idx;
}

std::optional<std::vector<Job>> setupJobs(const WorkloadDef& w,
                                          const KnownAnswers& answers,
                                          std::string* err) {
  std::vector<Job> jobs;
  for (std::size_t ki = 0; ki < w.kinds.size(); ++ki) {
    const Kind& k = w.kinds[ki];
    for (const JobRef& ref : k.jobs) {
      const auto sit = answers.systems.find(ref.system);
      if (sit == answers.systems.end()) {
        if (err) *err = "no known answer for system " + ref.system;
        return std::nullopt;
      }
      Job job;
      job.kind = static_cast<int>(ki);
      job.engine = k.engine;
      job.answer = &sit->second;
      job.id = ref.system;
      std::string buildErr;
      auto sys = ft::fleet::buildSystem(sit->second.spec, &buildErr);
      if (!sys) {
        if (err) *err = ref.system + ": " + buildErr;
        return std::nullopt;
      }
      job.sys = std::move(*sys);
      if (k.engine == Engine::Repair) {
        const auto rit = answers.repairs.find({ref.system, ref.strip});
        if (rit == answers.repairs.end()) {
          if (err) {
            *err = "no known repair answer for " + ref.system + " strip " +
                   std::to_string(ref.strip);
          }
          return std::nullopt;
        }
        job.repair = rit->second;
        if (ref.strip >= 0) {
          job.id += "/strip" + std::to_string(ref.strip);
          ft::check::stripFence(job.sys, ref.strip);
        }
      }
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

namespace {

/// Empty when the outcome sets and (when pinned) state counts agree.
std::string checkCounts(const SystemAnswer& answer, const Outcomes& outcomes,
                        std::uint64_t states, std::uint64_t pinnedStates) {
  if (outcomes != answer.outcomes) {
    return "outcome set differs: " + std::to_string(outcomes.size()) +
           " outcomes, expected " + std::to_string(answer.outcomes.size());
  }
  if (pinnedStates != 0 && states != pinnedStates) {
    return "visited " + std::to_string(states) + " states, pinned " +
           std::to_string(pinnedStates);
  }
  return "";
}

}  // namespace

std::string checkExplore(const SystemAnswer& answer,
                         const ft::sim::ExploreResult& res,
                         std::uint64_t pinnedStates) {
  if (res.capped()) {
    return std::string("stopped early (") +
           ft::util::stopReasonName(res.stopReason) + ")";
  }
  if (res.mutexViolation) return "mutual exclusion violated";
  return checkCounts(answer, res.outcomes, res.statesVisited, pinnedStates);
}

namespace {

void runExplore(const Job& job, JobRecord& rec) {
  ft::sim::ExploreOptions opts;
  opts.workers = job.engine == Engine::ExplorePar2 ? 2 : 1;
  opts.reduction = ft::sim::ReductionMode::sourceDpor;
  opts.visitedTier = ft::sim::VisitedTier::exact;
  opts.maxStates = 50'000'000;
  const ft::sim::ExploreResult res = ft::sim::explore(job.sys, opts);
  rec.hasExplore = true;
  rec.states = res.statesVisited;
  rec.telemetry = res.telemetry;
  // Parallel DPOR visits a discovery-order-dependent number of states,
  // so only the sequential engine's count is pinned.
  rec.failure = checkExplore(
      *job.answer, res,
      job.engine == Engine::ExploreSeq ? job.answer->dporSeqStates : 0);
}

void runFleetJob(const Job& job, const std::string& workerExe,
                 JobRecord& rec) {
  ft::fleet::FleetOptions opts;
  opts.workers = 2;
  opts.workerExe = workerExe;
  const ft::fleet::FleetResult res =
      ft::fleet::runFleet(job.sys, job.answer->spec, opts);
  rec.fleetStates = res.statesVisited;
  for (const auto& s : res.shards) rec.fleetForwarded += s.forwarded;
  rec.respawns = res.respawns;
  rec.protocolErrors = res.protocolErrors;
  if (res.verdict != ft::check::Verdict::Pass || !res.complete) {
    rec.failure = std::string("fleet verdict ") +
                  ft::check::verdictName(res.verdict) +
                  (res.complete ? "" : " (incomplete)");
  } else {
    // The fleet's merged count must equal the unreduced oracle's.
    rec.failure = checkCounts(*job.answer, res.outcomes, res.statesVisited,
                              job.answer->oracleStates);
  }
}

void runRepair(const Job& job, JobRecord& rec) {
  // One verify thread.  With two, alternating runs on a shared 4-vCPU
  // host spread over 28 % of their median, against 12 % with one, and
  // dpor-par2 already measures the parallel engine.
  ft::check::RepairOptions opts;
  opts.verifyWorkers = 1;
  opts.fuzzWorkers = 1;
  const ft::check::RepairReport rep =
      ft::check::repairMutualExclusion(job.sys, opts);
  rec.candidates = rep.candidatesEvaluated;
  rec.screened = rep.candidatesScreenedByWitness;
  rec.witnesses = rep.witnessesCollected;
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (const auto& p : rep.frontier) best = std::min(best, p.beta);
  const std::string verdict = ft::check::verdictName(rep.verdict);
  if (rep.stopReason != ft::util::StopReason::Complete) {
    rec.failure = std::string("repair stopped early (") +
                  ft::util::stopReasonName(rep.stopReason) + ")";
  } else if (verdict != job.repair.verdict) {
    rec.failure = "verdict " + verdict + ", expected " + job.repair.verdict;
  } else if (rep.frontier.empty() || best != job.repair.bestBeta) {
    rec.failure = "best beta " +
                  (rep.frontier.empty() ? std::string("none")
                                        : std::to_string(best)) +
                  ", expected " + std::to_string(job.repair.bestBeta);
  }
}

}  // namespace

JobRecord runJob(const Job& job, const std::string& workerExe) {
  JobRecord rec;
  try {
    if (job.plantThrow) throw std::runtime_error("planted exception");
    switch (job.engine) {
      case Engine::ExploreSeq:
      case Engine::ExplorePar2: runExplore(job, rec); break;
      case Engine::Fleet2: runFleetJob(job, workerExe, rec); break;
      case Engine::Repair: runRepair(job, rec); break;
    }
  } catch (const std::exception& e) {
    rec.failure = std::string("exception: ") + e.what();
  }
  return rec;
}

}  // namespace bench

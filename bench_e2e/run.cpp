#include "run.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>

#include "check/jsonio.h"
#include "json.h"
#include "stage_profile.h"
#include "trace.h"

namespace bench {

namespace {

/// Set-ups timed after every pass; setup_s is the median of all of
/// them.  One set-up takes ~0.2 ms, and on a shared host it reads ~1x
/// or ~1.7x depending on the moment, so a single burst of set-ups lands
/// wholly in one mode while set-ups spread over the run sample both.
constexpr int kSetupsPerPass = 9;

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string hostCpu() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string hostJson() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __VERSION__;
#else
  const std::string compiler = std::string("gcc ") + __VERSION__;
#endif
  std::string out = "{";
  ft::check::jsonStr(out, "cpu", hostCpu());
  out += ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) + ',';
  ft::check::jsonStr(out, "compiler", compiler);
  out += ',';
  ft::check::jsonStr(out, "build_type", BENCH_E2E_BUILD_TYPE);
  out += ',';
  ft::check::jsonStr(out, "flags", BENCH_E2E_CXX_FLAGS);
  return out + "}";
}

std::string metricsJson(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ',';
    ft::check::jsonKey(out, ms[i].name.c_str());
    out += "{\"value\":" + jsonNumber(ms[i].value) + ',';
    ft::check::jsonStr(out, "unit", ms[i].unit);
    out += '}';
  }
  return out + "}";
}

void printMetrics(std::FILE* log, const char* title,
                  const std::vector<Metric>& ms) {
  std::fprintf(log, "%s\n", title);
  for (const Metric& m : ms) {
    std::fprintf(log, "  %-36s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                 m.unit.c_str(), m.note.c_str());
  }
}

/// One sim::explore result, from a timed job or a stage-phase probe.
struct ExploreSample {
  int kind = 0;  ///< job kind index
  bool dpor = true;
  bool sequential = true;
  std::uint64_t states = 0;
  std::uint64_t usefulStates = 0;  ///< sequential-DPOR count of the system
  ft::sim::ExploreTelemetry t;
};

struct Totals {
  double wallNs = 0, states = 0, expansions = 0, sleepPruned = 0,
         widenings = 0, probes = 0, hits = 0, useful = 0, steals = 0,
         idle = 0, bytes = 0, records = 0, peakFrontier = 0;

  void add(const ExploreSample& s) {
    wallNs += s.t.wallSeconds * 1e9;
    states += static_cast<double>(s.states);
    for (const auto& w : s.t.workers) {
      expansions += static_cast<double>(w.expansions);
      steals += static_cast<double>(w.steals);
      idle += static_cast<double>(w.idleSpins);
    }
    sleepPruned += static_cast<double>(s.t.sleepPruned);
    widenings += static_cast<double>(s.t.provisoWidenings);
    probes += static_cast<double>(s.t.dedupProbes);
    hits += static_cast<double>(s.t.dedupHits);
    useful += static_cast<double>(s.usefulStates);
    bytes += static_cast<double>(s.t.arenaBytes);
    peakFrontier =
        std::max(peakFrontier, static_cast<double>(s.t.peakFrontier));
    records += 1;
  }
};

/// What the traced run measures after its passes.
struct StagePhase {
  std::vector<ExploreSample> explore;
  std::map<int, StageCosts> stages;  ///< by job kind
  std::size_t probes = 0;
  std::vector<std::string> failures;  ///< failed probes
};

/// Profile the first system of every job kind (the jobs of one kind
/// share a lock and differ at most in one stripped fence) and, for fleet
/// and repair jobs, which return no explore telemetry, run one
/// reference sim::explore per job: the unreduced oracle the fleet
/// distributes, or the sequential-DPOR leg repair runs on its input.
/// Both are checked against the known answers.
void runStagePhase(const std::vector<Job>& jobs, Tracer& tracer,
                   StagePhase& out) {
  for (const Job& job : jobs) {
    if (!out.stages.count(job.kind)) {
      out.stages[job.kind] = profileStages(job.sys, job.id, tracer);
    }
    if (job.engine != Engine::Fleet2 && job.engine != Engine::Repair) {
      continue;
    }
    auto span = tracer.span("probe", "stage", {{"system", job.id}});
    ++out.probes;
    const bool fleet = job.engine == Engine::Fleet2;
    ft::sim::ExploreOptions eo;
    eo.reduction = fleet ? ft::sim::ReductionMode::none
                         : ft::sim::ReductionMode::sourceDpor;
    eo.stopOnViolation = false;
    eo.maxStates = 50'000'000;
    std::string failure;
    try {
      const ft::sim::ExploreResult res = ft::sim::explore(job.sys, eo);
      out.explore.push_back({job.kind, !fleet, true, res.statesVisited,
                             fleet ? job.answer->dporSeqStates
                                   : res.statesVisited,
                             res.telemetry});
      if (fleet) {
        failure = checkExplore(*job.answer, res, job.answer->oracleStates);
      } else if (res.capped()) {
        failure = "stopped early";
      } else if (res.mutexViolation != (job.repair.verdict == "repaired")) {
        failure = res.mutexViolation ? "unexpected violation"
                                     : "input shows no violation";
      }
    } catch (const std::exception& e) {
      failure = std::string("exception: ") + e.what();
    }
    if (!failure.empty()) out.failures.push_back(job.id + " (probe): " + failure);
  }
}

/// The per-layer metrics of a traced run.
std::vector<Metric> perLayerMetrics(const WorkloadDef& w,
                                    const std::vector<Job>& jobs,
                                    const std::vector<JobRecord>& records,
                                    const StagePhase& phase) {
  Totals all;
  std::map<int, Totals> byKindTotals;
  std::map<int, const ExploreSample*> engineOf;
  for (const ExploreSample& s : phase.explore) {
    all.add(s);
    byKindTotals[s.kind].add(s);
    engineOf[s.kind] = &s;
  }

  // Stage costs: sample-weighted means over the workload's systems.
  static constexpr double StageCosts::*kMeanFields[] = {
      &StageCosts::enabledNs,       &StageCosts::execNs,
      &StageCosts::keyNs,           &StageCosts::selectNs,
      &StageCosts::childSleepNs,    &StageCosts::exactInsertNs,
      &StageCosts::exactHitNs,      &StageCosts::compressedInsertNs,
      &StageCosts::compressedHitNs, &StageCosts::frameEncodeNs,
      &StageCosts::frameDecodeNs,   &StageCosts::replayNsPerStep,
      &StageCosts::replayDepth,     &StageCosts::forwardBytes};
  double weight = 0, shardNs = 0, shardStates = 0;
  StageCosts mean;
  for (const auto& [id, c] : phase.stages) {
    const double wgt = static_cast<double>(c.samples);
    weight += wgt;
    for (const auto f : kMeanFields) mean.*f += c.*f * wgt;
    shardNs += c.shardSeconds * 1e9;
    shardStates += static_cast<double>(c.shardStates);
  }
  for (const auto f : kMeanFields) mean.*f = ratio(mean.*f, weight);

  // Coverage: what the stages predict for each kind's explore calls
  // (its own ns/op times the engine's ops/state), over what the calls
  // took.  selectMoves enumerates the enabled moves itself.
  double predictedNs = 0, measuredNs = 0;
  for (const auto& [kind, t] : byKindTotals) {
    const StageCosts& c = phase.stages.at(kind);
    const bool dpor = engineOf[kind]->dpor;
    const bool sleepSets = dpor && engineOf[kind]->sequential;
    predictedNs += (dpor ? c.selectNs : c.enabledNs) * t.expansions +
                   (c.execNs + c.keyNs) * t.probes +
                   (sleepSets ? c.childSleepNs * t.probes : 0.0) +
                   c.exactInsertNs * t.states + c.exactHitNs * t.hits;
    measuredNs += t.wallNs;
  }

  double fleetStates = 0, fleetForwarded = 0, fleetNs = 0, inProcessNs = 0,
         respawns = 0, protocolErrors = 0;
  double candidates = 0, screened = 0, witnesses = 0, repairJobs = 0;
  std::vector<std::vector<double>> byKind(w.kinds.size());
  for (const JobRecord& rec : records) {
    const Job& job = jobs[static_cast<std::size_t>(rec.job)];
    byKind[static_cast<std::size_t>(job.kind)].push_back(rec.seconds);
    if (job.engine == Engine::Fleet2) {
      const StageCosts& c = phase.stages.at(job.kind);
      fleetStates += static_cast<double>(rec.fleetStates);
      fleetForwarded += static_cast<double>(rec.fleetForwarded);
      fleetNs += rec.seconds * 1e9;
      inProcessNs += ratio(c.shardSeconds * 1e9,
                           static_cast<double>(c.shardStates)) *
                     static_cast<double>(rec.fleetStates);
      respawns += rec.respawns;
      protocolErrors += rec.protocolErrors;
    } else if (job.engine == Engine::Repair) {
      candidates += static_cast<double>(rec.candidates);
      screened += static_cast<double>(rec.screened);
      witnesses += static_cast<double>(rec.witnesses);
      repairJobs += 1;
    }
  }

  std::vector<Metric> m = {
      {"sim.explore.ns_per_state", "ns", ratio(all.wallNs, all.states), ""},
      {"sim.explore.states", "count", ratio(all.states, all.records),
       "mean per explore call"},
      {"sim.explore.expansions_per_state", "ratio",
       ratio(all.expansions, all.states), ""},
      {"sim.explore.sleep_pruned_per_state", "ratio",
       ratio(all.sleepPruned, all.states), ""},
      {"sim.explore.proviso_widenings", "count",
       ratio(all.widenings, all.records), "mean per explore call"},
      {"sim.explore.dedup_hit_ratio", "ratio", ratio(all.hits, all.probes),
       ""},
      {"sim.explore.useful_ratio", "ratio", ratio(all.useful, all.states),
       "sequential-DPOR states / states visited"},
      {"sim.explore.steals", "count", ratio(all.steals, all.records),
       "mean per explore call"},
      {"sim.explore.idle_spins_per_state", "ratio",
       ratio(all.idle, all.states), ""},
      {"sim.explore.visited_bytes_per_state", "bytes",
       ratio(all.bytes, all.states), ""},
      {"sim.explore.peak_frontier", "count", all.peakFrontier,
       "max over explore calls"},
      {"sim.enabled.ns", "ns", mean.enabledNs, "per state"},
      {"sim.exec.ns", "ns", mean.execNs, "per successor"},
      {"sim.key.ns", "ns", mean.keyNs, "per state"},
      {"sim.dpor.select_ns", "ns", mean.selectNs, "per state"},
      {"sim.dpor.child_sleep_ns", "ns", mean.childSleepNs, "per successor"},
      {"util.visited.exact.insert_ns", "ns", mean.exactInsertNs, ""},
      {"util.visited.exact.hit_ns", "ns", mean.exactHitNs, ""},
      {"util.visited.compressed.insert_ns", "ns", mean.compressedInsertNs,
       ""},
      {"util.visited.compressed.hit_ns", "ns", mean.compressedHitNs, ""},
      {"util.frame.encode_ns", "ns", mean.frameEncodeNs, "per forward"},
      {"util.frame.decode_ns", "ns", mean.frameDecodeNs, "per forward"},
      {"sim.shard.replay_ns_per_step", "ns", mean.replayNsPerStep, ""},
      {"sim.shard.replay_depth", "steps", mean.replayDepth,
       "mean BFS path length"},
      {"sim.shard.ns_per_state", "ns", ratio(shardNs, shardStates),
       "in-process 2-shard closure"},
      {"sim.stage_coverage", "ratio", ratio(predictedNs, measuredNs),
       "stage ns/op x ops/state over explore ns/state"},
      {"fleet.forwards_per_state", "ratio",
       ratio(fleetForwarded, fleetStates), "0 without fleet jobs"},
      {"fleet.forward_bytes", "bytes", mean.forwardBytes,
       "encoded ForwardMsg frame"},
      {"fleet.respawns", "count", respawns, "must stay 0"},
      {"fleet.protocol_errors", "count", protocolErrors, "must stay 0"},
      {"fleet.ipc_share", "ratio",
       fleetNs > 0 ? 1.0 - inProcessNs / fleetNs : 0.0,
       "1 - in-process shard time / fleet wall"},
      {"check.repair.candidates", "count", ratio(candidates, repairJobs),
       "mean per repair job"},
      {"check.repair.screened_ratio", "ratio", ratio(screened, candidates),
       "screened by witness / evaluated"},
      {"check.repair.witnesses", "count", ratio(witnesses, repairJobs),
       "mean per repair job"},
  };
  for (std::size_t k = 0; k < byKind.size(); ++k) {
    m.push_back({"job.k" + std::to_string(k + 1) + ".s_p50", "s",
                 median(byKind[k]),
                 w.kinds[k].label + ", N=" + std::to_string(byKind[k].size())});
  }
  return m;
}

std::string reportJson(const RunOptions& opts, const RunResult& r,
                       const std::vector<Metric>& context,
                       const std::vector<double>& passSeconds,
                       const std::vector<Job>& jobs,
                       const std::vector<JobRecord>& records) {
  std::string rep = "{\"schema\":\"bench_e2e-report/1\",";
  ft::check::jsonStr(rep, "workload", opts.workload->name);
  rep += ",\"seed\":" + std::to_string(opts.seed) +
      ",\"seconds\":" + jsonNumber(opts.seconds) +
      ",\"traced\":" + (opts.traced ? "true" : "false") +
      ",\"host\":" + hostJson() +
      ",\"correct\":" + (r.correct() ? "true" : "false") +
      ",\"attempted\":" + std::to_string(r.attempted) +
      ",\"failed\":" + std::to_string(r.failed) +
      ",\"context\":" + metricsJson(context) +
      ",\"end_to_end\":" + metricsJson(r.endToEnd) +
      ",\"per_layer\":" + metricsJson(r.perLayer) + ",\"passes\":[";
  for (std::size_t i = 0; i < passSeconds.size(); ++i) {
    if (i) rep += ',';
    rep += jsonNumber(passSeconds[i]);
  }
  rep += "],\"jobs\":[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const JobRecord& rec = records[i];
    if (i) rep += ',';
    rep += '{';
    ft::check::jsonStr(rep, "id", jobs[static_cast<std::size_t>(rec.job)].id);
    rep += ",\"pass\":" + std::to_string(rec.pass) +
           ",\"seconds\":" + jsonNumber(rec.seconds) + ',';
    ft::check::jsonStr(rep, "failure", rec.failure);
    rep += '}';
  }
  return rep + "]}";
}

}  // namespace

RunResult executeRun(const RunOptions& opts, std::FILE* log) {
  RunResult r;
  const WorkloadDef& w = *opts.workload;
  Tracer tracer;
  tracer.setEnabled(opts.traced);

  // --- set-up: load the known answers and build every job's System.
  std::vector<double> setupSeconds, buildSeconds;
  auto setUp = [&](Setup& out) -> bool {
    auto span = tracer.span("setup", "run");
    const double t0 = nowSeconds();
    auto answers = loadKnownAnswers(opts.expectedPath, &r.error);
    if (!answers) return false;
    out.answers = std::move(*answers);
    const double t1 = nowSeconds();
    auto built = setupJobs(w, out.answers, &r.error);
    const double t2 = nowSeconds();
    if (!built) return false;
    out.jobs = std::move(*built);
    setupSeconds.push_back(t2 - t0);
    buildSeconds.push_back(t2 - t1);
    return true;
  };
  Setup setup;
  if (!setUp(setup)) return r;
  if (opts.plant) opts.plant(setup);
  r.completed = true;
  const std::vector<Job>& jobs = setup.jobs;
  std::fprintf(log, "bench_e2e: workload %s, seed %llu, %g s of passes, %s\n",
               w.name.c_str(), static_cast<unsigned long long>(opts.seed),
               opts.seconds, opts.traced ? "traced" : "untraced");
  for (const Job& j : jobs) {
    std::fprintf(log, "  job %-24s kind %-12s %s\n", j.id.c_str(),
                 w.kinds[static_cast<std::size_t>(j.kind)].label.c_str(),
                 engineCall(j.engine));
  }

  // --- timed passes: a closed loop, one job at a time.
  std::vector<JobRecord> records;
  std::vector<double> passSeconds, tracedPass, untracedPass;
  const double start = nowSeconds();
  auto runSpan = tracer.span("run", "run",
                             {{"workload", w.name},
                              {"seed", std::to_string(opts.seed)}});
  for (int pass = 0;; ++pass) {
    // A traced run alternates traced and untraced passes so it can
    // measure its own overhead; it needs at least one of each.
    if (nowSeconds() - start >= opts.seconds &&
        pass >= (opts.traced ? 2 : 1)) {
      break;
    }
    tracer.setEnabled(opts.traced && pass % 2 == 0);
    const double p0 = nowSeconds();
    {
      auto passSpan =
          tracer.span("pass", "run", {{"pass", std::to_string(pass)}});
      for (const std::size_t ji : passOrder(jobs.size(), opts.seed, pass)) {
        const Job& job = jobs[ji];
        const std::string& kind =
            w.kinds[static_cast<std::size_t>(job.kind)].label;
        auto jobSpan = tracer.span(
            "job", "job", {{"job", job.id}, {"kind", kind}});
        const double j0 = nowSeconds();
        JobRecord rec;
        {
          auto callSpan = tracer.span(engineCall(job.engine), "call");
          rec = runJob(job, opts.workerExe);
        }
        rec.seconds = nowSeconds() - j0;
        rec.job = static_cast<int>(ji);
        rec.pass = pass;
        jobSpan.arg("ok", rec.ok() ? "true" : "false");
        if (!rec.ok()) r.failures.push_back(job.id + ": " + rec.failure);
        records.push_back(std::move(rec));
      }
    }
    const double dt = nowSeconds() - p0;
    passSeconds.push_back(dt);
    (tracer.enabled() ? tracedPass : untracedPass).push_back(dt);
    std::fprintf(log, "  pass %d: %.4f s\n", pass, dt);
    for (int k = 0; k < kSetupsPerPass; ++k) {
      Setup again;
      setUp(again);
    }
  }
  tracer.setEnabled(opts.traced);
  r.attempted = records.size();

  // --- end-to-end metrics (measured on every run; reported untraced).
  std::vector<double> jobSeconds;
  for (const JobRecord& rec : records) jobSeconds.push_back(rec.seconds);
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  r.endToEnd = {
      {"verify_s", "s", median(passSeconds),
       "median over " + std::to_string(passSeconds.size()) + " passes"},
      {"peak_rss_mib", "MiB", static_cast<double>(self.ru_maxrss) / 1024.0,
       "ru_maxrss of this process"},
      {"setup_s", "s", median(setupSeconds),
       "median over " + std::to_string(setupSeconds.size()) + " set-ups"},
  };

  // --- traced run: stage profile, reference probes, per-layer metrics.
  if (opts.traced) {
    StagePhase phase;
    for (const JobRecord& rec : records) {
      if (!rec.hasExplore) continue;
      const Job& job = jobs[static_cast<std::size_t>(rec.job)];
      phase.explore.push_back({job.kind, true, job.engine == Engine::ExploreSeq,
                               rec.states, job.answer->dporSeqStates,
                               rec.telemetry});
    }
    {
      auto span = tracer.span("stage-profile", "stage");
      runStagePhase(jobs, tracer, phase);
    }
    r.attempted += phase.probes;
    r.failures.insert(r.failures.end(), phase.failures.begin(),
                      phase.failures.end());
    r.perLayer = perLayerMetrics(w, jobs, records, phase);
    // Workers are fork()+exec'd, and Linux carries the pre-exec peak
    // into the child's maxrss, so this is max(worker peak, coordinator
    // RSS at fork): an upper bound on the worker's own peak.
    r.perLayer.push_back({"fleet.worker_rss_bound_mib", "MiB",
                          static_cast<double>(children.ru_maxrss) / 1024.0,
                          "upper bound: max(worker peak, coordinator RSS "
                          "at fork); 0 without fleet jobs"});
    r.perLayer.push_back({"core.build_s", "s", median(buildSeconds),
                          "median over " +
                              std::to_string(buildSeconds.size()) +
                              " set-ups"});
    r.perLayer.push_back(
        {"trace_overhead", "ratio",
         ratio(median(tracedPass), median(untracedPass)) - 1.0,
         "traced / untraced pass median - 1"});
  }
  runSpan.end();
  r.failed = r.failures.size();

  // --- report.
  for (const std::string& f : r.failures) {
    std::fprintf(log, "  FAIL %s\n", f.c_str());
  }
  // Context, not gated.  job_s_p50 falls in the gap between two job
  // kinds, so it swings with one kind's slowest job; fail_ratio is 0 on
  // a healthy run.
  const std::vector<Metric> context = {
      {"job_s_p50", "s", median(jobSeconds),
       "N=" + std::to_string(jobSeconds.size()) + " jobs"},
      {"fail_ratio", "1",
       ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
       std::to_string(r.failed) + " of " + std::to_string(r.attempted) +
           " failed"},
  };
  printMetrics(log, "end-to-end metrics:", r.endToEnd);
  printMetrics(log, "context (not gated):", context);
  if (opts.traced) printMetrics(log, "per-layer metrics:", r.perLayer);
  r.reportJson = reportJson(opts, r, context, passSeconds, jobs, records);

  if (opts.traced && !opts.tracePath.empty()) {
    std::string err;
    if (!tracer.write(opts.tracePath, &err)) {
      r.error = err;
      r.completed = false;
    } else {
      std::fprintf(log, "trace: %zu spans written to %s\n",
                   tracer.spanCount(), opts.tracePath.c_str());
    }
  }
  return r;
}

std::string resultLine(const RunResult& r, bool traced) {
  return std::string("{\"correct\":") + (r.correct() ? "true" : "false") +
         ",\"attempted\":" + std::to_string(r.attempted) +
         ",\"failed\":" + std::to_string(r.failed) +
         ",\"metrics\":" + metricsJson(traced ? r.perLayer : r.endToEnd) + "}";
}

}  // namespace bench

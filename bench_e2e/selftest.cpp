// `bench_e2e --selftest`: tiny jobs of every engine (GT_2 n=2 through
// both DPOR engines and a 2-process fleet at 983 states, one Peterson
// n=2 repair), run through the same driver as the real workloads.
#include "selftest.h"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "json.h"
#include "run.h"

namespace bench {

namespace {

const WorkloadDef& tinyWorkload() {
  static const WorkloadDef w{
      "selftest",
      {{"gt2-n2", Engine::ExploreSeq, {{"gt2-PSO-2", -1}}},
       {"gt2-n2-par2", Engine::ExplorePar2, {{"gt2-PSO-2", -1}}},
       {"gt2-n2-fleet2", Engine::Fleet2, {{"gt2-PSO-2", -1}}},
       {"peterson-n2-repair", Engine::Repair, {{"peterson-PSO-2", 0}}}}};
  return w;
}

struct Check {
  int failures = 0;
  void expect(bool ok, const std::string& what) {
    std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  }
};

/// Run the tiny workload, capturing the printed log.
RunResult runTiny(RunOptions opts, std::string& log) {
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* mem = open_memstream(&buf, &len);
  RunResult r = executeRun(opts, mem);
  std::fclose(mem);
  log.assign(buf, len);
  std::free(buf);
  return r;
}

/// Every metric BENCHMARK.json lists under `section` appears in the
/// result line with its unit, and by name in the printed table.
void expectMetrics(Check& c, const Json& bench, const char* section,
                   const RunResult& r, bool traced, const std::string& log) {
  std::string err;
  const auto line = parseJson(resultLine(r, traced), &err);
  c.expect(line.has_value(), std::string("result line parses ") + err);
  const Json* metrics = line ? line->get("metrics") : nullptr;
  const Json* list = bench.get(section);
  c.expect(list != nullptr && list->isArray() && !list->array.empty(),
           std::string("BENCHMARK.json lists ") + section);
  if (list == nullptr || metrics == nullptr) return;
  int missing = 0;
  for (const Json& m : list->array) {
    const Json* got = metrics->get(m.str("name"));
    const bool ok = got != nullptr && got->str("unit") == m.str("unit") &&
                    got->get("value") != nullptr &&
                    got->get("value")->isNumber() &&
                    log.find(m.str("name")) != std::string::npos;
    if (!ok) {
      ++missing;
      std::printf("    missing or mislabelled: %s [%s]\n", m.str("name").c_str(),
                  m.str("unit").c_str());
    }
  }
  c.expect(missing == 0, std::string("every ") + section +
                             " metric is printed with its unit");
  c.expect(metrics->object.size() == list->array.size(),
           std::string("no metric outside ") + section);
}

}  // namespace

int runSelftest(const std::string& expectedPath,
                const std::string& benchmarkPath,
                const std::string& workerExe) {
  Check c;
  std::string err;
  const auto bench = readJsonFile(benchmarkPath, &err);
  c.expect(bench.has_value(), "BENCHMARK.json parses " + err);
  if (!bench) return 1;

  RunOptions base;
  base.workload = &tinyWorkload();
  base.seed = 7;
  base.seconds = 0.0;  // one pass (two when traced)
  base.expectedPath = expectedPath;
  base.workerExe = workerExe;
  std::string log;

  std::printf("clean run:\n");
  RunResult clean = runTiny(base, log);
  c.expect(clean.correct() && clean.attempted == 4,
           "4 jobs, all give their known answer");
  expectMetrics(c, *bench, "end_to_end", clean, false, log);

  std::printf("traced run:\n");
  RunOptions traced = base;
  traced.traced = true;
  traced.tracePath = "bench_e2e_selftest_trace.json";
  RunResult tr = runTiny(traced, log);
  c.expect(tr.correct(), "traced run is correct (probes included)");
  expectMetrics(c, *bench, "per_layer", tr, true, log);
  const auto trace = readJsonFile(traced.tracePath, &err);
  c.expect(trace.has_value(), "trace JSON parses " + err);
  int jobSpans = 0, stageSpans = 0;
  if (const Json* ev = trace ? trace->get("traceEvents") : nullptr) {
    for (const Json& e : ev->array) {
      jobSpans += e.str("cat") == "job";
      stageSpans += e.str("cat") == "stage";
    }
  }
  c.expect(jobSpans >= 4 && stageSpans > 0, "trace holds job and stage spans");
  std::remove(traced.tracePath.c_str());

  std::printf("planted wrong answer:\n");
  RunOptions wrong = base;
  wrong.plant = [](Setup& s) {
    s.answers.systems.at("gt2-PSO-2").dporSeqStates += 1;
  };
  RunResult wr = runTiny(wrong, log);
  c.expect(!wr.correct() && wr.failed == 1 && wr.attempted == 4,
           "a wrong pinned state count fails exactly its job");
  const auto report = parseJson(wr.reportJson, &err);
  const Json* context = report ? report->get("context") : nullptr;
  const Json* ratio = context ? context->get("fail_ratio") : nullptr;
  c.expect(ratio && ratio->num("value") == 0.25 &&
               log.find("fail_ratio") != std::string::npos,
           "fail_ratio rises from 0 to 1/4");

  std::printf("throwing job:\n");
  RunOptions throwing = base;
  throwing.plant = [](Setup& s) { s.jobs.front().plantThrow = true; };
  RunResult th = runTiny(throwing, log);
  c.expect(th.failed == 1 && th.attempted == 4 && !th.failures.empty() &&
               th.failures.front().find("exception") != std::string::npos,
           "an exception fails its job and the run goes on");

  std::printf("selftest: %s\n", c.failures == 0 ? "PASS" : "FAIL");
  return c.failures == 0 ? 0 : 1;
}

}  // namespace bench

// `bench_e2e compare A/*.json -- B/*.json`: the choosing-metrics rule
// for two sets of run reports, applied per (end-to-end metric,
// workload).  A is the parent, B the change.
//
//   regressed   B's median is worse than A's by more than the bound
//   unresolved  not regressed, and either side's relative spread
//               exceeds the bound, unless every B run reads better
//               than every A run (then improved)
//   improved    B wins at least 9 of 10 seed-paired runs and the medians
//               differ by more than A's interquartile range
//   ok          otherwise
#include "compare.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "json.h"

namespace bench {

namespace {

/// statistics.quantiles(data, n=4) with Python's default 'exclusive'
/// method, so the spreads match what other tooling computes.
std::vector<double> quartiles(std::vector<double> d) {
  std::sort(d.begin(), d.end());
  const long ld = static_cast<long>(d.size());
  if (ld == 1) return {d[0], d[0], d[0]};
  std::vector<double> q;
  const long m = ld + 1;
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q.push_back((d[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                 d[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                4.0);
  }
  return q;
}

struct Run {
  std::string workload;
  long long seed = 0;
  std::map<std::string, double> metrics;
};

struct Bound {
  double bound = 0.0;
  bool lowerBetter = true;
};

bool loadRuns(const std::vector<std::string>& files, std::vector<Run>& out,
              std::string& fingerprint, double& seconds, std::string& err) {
  for (const std::string& f : files) {
    const auto doc = readJsonFile(f, &err);
    if (!doc) return false;
    if (doc->str("schema") != "bench_e2e-report/1") {
      err = f + ": not a bench_e2e run report";
      return false;
    }
    const Json* traced = doc->get("traced");
    if (traced == nullptr || traced->boolean) {
      err = f + ": traced runs carry no end-to-end metrics to compare";
      return false;
    }
    const Json* host = doc->get("host");
    std::string fp;
    for (const char* k : {"cpu", "compiler", "build_type", "flags"}) {
      fp += std::string(k) + "=" + (host ? host->str(k) : "") + "; ";
    }
    fp += "nproc=" + std::to_string(static_cast<long>(host ? host->num("nproc") : 0));
    if (fingerprint.empty()) fingerprint = fp;
    if (fp != fingerprint) {
      err = "host fingerprints differ:\n  " + fingerprint + "\n  " + fp +
            " (" + f + ")";
      return false;
    }
    const double s = doc->num("seconds", -1);
    if (seconds < 0) seconds = s;
    if (s != seconds) {
      err = f + ": run length differs (" + std::to_string(s) + " s vs " +
            std::to_string(seconds) + " s)";
      return false;
    }
    Run r;
    r.workload = doc->str("workload");
    r.seed = static_cast<long long>(doc->num("seed"));
    const Json* e2e = doc->get("end_to_end");
    if (e2e == nullptr || !e2e->isObject() || !doc->get("correct") ||
        !doc->get("correct")->boolean) {
      err = f + ": incorrect run or no end-to-end metrics";
      return false;
    }
    for (const auto& [name, m] : e2e->object) r.metrics[name] = m.num("value");
    out.push_back(std::move(r));
  }
  return true;
}

struct Row {
  std::vector<double> qa, qb;  ///< quartiles of A and B
  std::size_t wins = 0;        ///< seed pairs where B reads better
  const char* verdict = "ok";
};

/// Judge one (workload, metric) from its seed-paired (A, B) values.
Row judge(const std::vector<std::pair<double, double>>& pairs,
          const Bound& bound) {
  std::vector<double> a, b;
  for (const auto& [x, y] : pairs) {
    a.push_back(x);
    b.push_back(y);
  }
  Row row{quartiles(a), quartiles(b)};
  const double sign = bound.lowerBetter ? 1.0 : -1.0;
  auto better = [&](double x, double y) { return sign * (x - y) < 0; };
  for (const auto& [x, y] : pairs) row.wins += better(y, x) ? 1 : 0;
  const double medA = row.qa[1], medB = row.qb[1];
  const double iqrA = row.qa[2] - row.qa[0], iqrB = row.qb[2] - row.qb[0];
  const double scale = std::fabs(medA) > 0 ? std::fabs(medA) : 1.0;
  const bool allBetter =
      bound.lowerBetter
          ? *std::max_element(b.begin(), b.end()) <
                *std::min_element(a.begin(), a.end())
          : *std::min_element(b.begin(), b.end()) >
                *std::max_element(a.begin(), a.end());
  if (sign * (medB - medA) / scale > bound.bound) {
    row.verdict = "regressed";
  } else if (std::max(iqrA, iqrB) / scale > bound.bound) {
    row.verdict = allBetter ? "improved" : "unresolved";
  } else if (better(medB, medA) && std::fabs(medB - medA) > iqrA &&
             10 * row.wins >= 9 * pairs.size()) {
    row.verdict = "improved";
  }
  return row;
}

}  // namespace

int runCompare(const std::vector<std::string>& filesA,
               const std::vector<std::string>& filesB,
               const std::string& benchmarkPath, std::FILE* out) {
  std::string err;
  const auto bench = readJsonFile(benchmarkPath, &err);
  const Json* e2e = bench ? bench->get("end_to_end") : nullptr;
  if (e2e == nullptr || !e2e->isArray()) {
    std::fprintf(stderr, "compare: %s\n",
                 err.empty() ? "BENCHMARK.json has no end_to_end list"
                             : err.c_str());
    return 2;
  }
  std::vector<std::pair<std::string, Bound>> bounds;
  for (const Json& m : e2e->array) {
    bounds.push_back({m.str("name"), {m.num("bound"), m.str("better") != "higher"}});
  }

  std::vector<Run> a, b;
  std::string fingerprint;
  double seconds = -1;
  if (filesA.empty() || filesB.empty() ||
      !loadRuns(filesA, a, fingerprint, seconds, err) ||
      !loadRuns(filesB, b, fingerprint, seconds, err)) {
    std::fprintf(stderr, "compare: refused: %s\n",
                 err.empty() ? "both sides need run reports" : err.c_str());
    return 2;
  }

  // Seed-paired runs per workload: (A run, B run) by seed.
  using Paired = std::map<long long, std::pair<const Run*, const Run*>>;
  std::map<std::string, Paired> byWorkload;
  for (const Run& r : a) byWorkload[r.workload][r.seed].first = &r;
  for (const Run& r : b) byWorkload[r.workload][r.seed].second = &r;
  for (const auto& [wl, runs] : byWorkload) {
    const bool paired = std::all_of(runs.begin(), runs.end(), [](const auto& e) {
      return e.second.first != nullptr && e.second.second != nullptr;
    });
    if (!paired || runs.size() < 2) {
      std::fprintf(stderr,
                   "compare: refused: workload %s needs the same seeds "
                   "(at least 2) on both sides\n",
                   wl.c_str());
      return 2;
    }
  }

  std::fprintf(out, "compare: %s, %g s per run\n", fingerprint.c_str(), seconds);
  std::fprintf(out, "%-10s %-13s %-32s %-32s %8s %7s %6s  %s\n", "workload",
               "metric", "A median [q1, q3]", "B median [q1, q3]", "change",
               "B wins", "bound", "verdict");
  bool anyRegressed = false;
  for (const auto& [wl, runs] : byWorkload) {
    std::string worst = "ok";
    auto rank = [](const std::string& v) {
      return v == "regressed" ? 3 : v == "unresolved" ? 2 : v == "improved" ? 1 : 0;
    };
    for (const auto& [name, bound] : bounds) {
      std::vector<std::pair<double, double>> pairs;
      for (const auto& [seed, ab] : runs) {
        const auto ia = ab.first->metrics.find(name);
        const auto ib = ab.second->metrics.find(name);
        if (ia == ab.first->metrics.end() || ib == ab.second->metrics.end()) {
          continue;
        }
        pairs.emplace_back(ia->second, ib->second);
      }
      if (pairs.size() < 2) continue;
      const Row row = judge(pairs, bound);
      const auto& qa = row.qa;
      const auto& qb = row.qb;
      char ca[64], cb[64];
      std::snprintf(ca, sizeof ca, "%.4g [%.4g, %.4g]", qa[1], qa[0], qa[2]);
      std::snprintf(cb, sizeof cb, "%.4g [%.4g, %.4g]", qb[1], qb[0], qb[2]);
      std::fprintf(out, "%-10s %-13s %-32s %-32s %+7.2f%% %3zu/%-3zu %5.0f%%  %s\n",
                   wl.c_str(), name.c_str(), ca, cb,
                   qa[1] != 0 ? 100.0 * (qb[1] - qa[1]) / std::fabs(qa[1]) : 0.0,
                   row.wins, pairs.size(), 100.0 * bound.bound, row.verdict);
      if (rank(row.verdict) > rank(worst)) worst = row.verdict;
    }
    std::fprintf(out, "%-10s %s\n", wl.c_str(), worst.c_str());
    anyRegressed = anyRegressed || worst == "regressed";
  }
  return anyRegressed ? 1 : 0;
}

}  // namespace bench

#include "stage_profile.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "fleet/protocol.h"
#include "json.h"
#include "sim/dpor.h"
#include "sim/explore.h"
#include "sim/shard.h"
#include "util/frame.h"
#include "util/keystore.h"

namespace bench {

namespace ft = fencetrade;
using ft::sim::Config;
using ft::sim::SchedPath;
using Elem = std::pair<ft::sim::ProcId, ft::sim::Reg>;

namespace {

constexpr std::uint32_t kSampleEvery = 64;
constexpr std::uint32_t kMaxSamples = 8192;
constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;
constexpr std::uint64_t kShardCap = 100'000;

/// Every batch is repeated until both floors are met; the median
/// batch is the stage's cost.
constexpr int kMinBatches = 5;
constexpr double kMinStageSeconds = 0.02;

/// Every batch folds its results into a sink published here, so the
/// compiler cannot drop the timed calls.
volatile std::uint64_t gSink = 0;

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median ns/op of `batch`, which performs `ops` operations per call.
/// `prepare` runs untimed before every batch (e.g. a fresh store).
template <class Prepare, class Batch>
double timeStage(std::uint64_t ops, Prepare&& prepare, Batch&& batch) {
  if (ops == 0) return 0.0;
  std::vector<double> perOp;
  double spent = 0.0;
  while (static_cast<int>(perOp.size()) < kMinBatches ||
         (spent < kMinStageSeconds && perOp.size() < 1000)) {
    prepare();
    const double t0 = nowSeconds();
    batch();
    const double dt = nowSeconds() - t0;
    spent += dt;
    perOp.push_back(dt * 1e9 / static_cast<double>(ops));
  }
  std::sort(perOp.begin(), perOp.end());
  return perOp[perOp.size() / 2];
}

template <class Batch>
double timeStage(std::uint64_t ops, Batch&& batch) {
  return timeStage(ops, [] {}, std::forward<Batch>(batch));
}

/// The sampled states: BFS admission order, parent links, and every
/// kSampleEvery-th admitted state materialized.
struct Sample {
  std::vector<Config> cfgs;
  std::vector<SchedPath> paths;
  std::vector<std::string> keys;
  std::vector<std::string> parentKeys;  ///< key of the BFS parent
};

struct BfsNode {
  std::uint32_t parent = kNoParent;
  Elem move{0, 0};
};

SchedPath pathOf(const std::vector<BfsNode>& nodes, std::uint32_t i) {
  SchedPath path;
  while (nodes[i].parent != kNoParent) {
    path.push_back(nodes[i].move);
    i = nodes[i].parent;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

Config replay(const ft::sim::System& sys, const SchedPath& path) {
  Config cfg = ft::sim::initialConfig(sys);
  for (const auto& [p, r] : path) ft::sim::execElem(sys, cfg, p, r);
  return cfg;
}

Sample sampleStates(const ft::sim::System& sys) {
  const std::uint64_t cap =
      static_cast<std::uint64_t>(kSampleEvery) * kMaxSamples;
  std::vector<BfsNode> nodes;
  ft::util::DeltaKeyStore visited;
  std::string key;
  const Config init = ft::sim::initialConfig(sys);
  init.behavioralKeyInto(key);
  visited.insert(key);
  nodes.push_back({});

  // BFS order is admission order, so the queue is an index into nodes.
  // A dequeued state is rebuilt from its parent's config; siblings are
  // dequeued together, so the parent is replayed once per family.
  std::uint32_t cachedParent = kNoParent;
  Config parentCfg, cfg, child;
  std::vector<Elem> moves;
  for (std::uint32_t head = 0; head < nodes.size() && nodes.size() < cap;
       ++head) {
    const BfsNode node = nodes[head];
    if (node.parent == kNoParent) {
      cfg = init;
    } else {
      if (node.parent != cachedParent) {
        parentCfg = replay(sys, pathOf(nodes, node.parent));
        cachedParent = node.parent;
      }
      cfg = parentCfg;
      ft::sim::execElem(sys, cfg, node.move.first, node.move.second);
    }
    ft::sim::detail::enabledMovesInto(cfg, moves);
    for (const Elem& m : moves) {
      child = cfg;
      ft::sim::execElem(sys, child, m.first, m.second);
      child.behavioralKeyInto(key);
      if (visited.insert(key).fresh) {
        nodes.push_back({head, m});
        if (nodes.size() >= cap) break;
      }
    }
  }

  Sample s;
  for (std::uint32_t i = 0; i < nodes.size(); i += kSampleEvery) {
    s.paths.push_back(pathOf(nodes, i));
    s.cfgs.push_back(replay(sys, s.paths.back()));
    s.cfgs.back().behavioralKeyInto(key);
    s.keys.push_back(key);
    if (nodes[i].parent == kNoParent) {
      s.parentKeys.push_back(key);
    } else {
      replay(sys, pathOf(nodes, nodes[i].parent)).behavioralKeyInto(key);
      s.parentKeys.push_back(key);
    }
  }
  return s;
}

}  // namespace

StageCosts profileStages(const ft::sim::System& sys, const std::string& label,
                         Tracer& tracer) {
  const Tracer::Args who = {{"system", label}};
  StageCosts c;
  Sample s;
  {
    auto span = tracer.span("stage.sample", "stage", who);
    s = sampleStates(sys);
    span.arg("samples", std::to_string(s.cfgs.size()));
  }
  const std::size_t n = s.cfgs.size();
  c.samples = n;
  std::vector<std::vector<Elem>> moves(n);
  std::uint64_t childOps = 0, pathSteps = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ft::sim::detail::enabledMovesInto(s.cfgs[i], moves[i]);
    childOps += moves[i].size();
    pathSteps += s.paths[i].size();
  }
  std::uint64_t sink = 0;

  {
    auto span = tracer.span("stage.sim.enabled", "stage", who);
    std::vector<Elem> out;
    c.enabledNs = timeStage(n, [&] {
      for (const Config& cfg : s.cfgs) {
        ft::sim::detail::enabledMovesInto(cfg, out);
        sink += out.size();
      }
    });
  }
  {
    auto span = tracer.span("stage.sim.exec", "stage", who);
    Config child;
    c.execNs = timeStage(childOps, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        for (const Elem& m : moves[i]) {
          child = s.cfgs[i];
          sink += ft::sim::execElem(sys, child, m.first, m.second).has_value();
        }
      }
    });
  }
  {
    auto span = tracer.span("stage.sim.key", "stage", who);
    std::string key;
    std::vector<ft::sim::Value> ret;
    c.keyNs = timeStage(n, [&] {
      for (const Config& cfg : s.cfgs) {
        sink += cfg.behavioralKeyInto(key, &ret);
        sink += key.size();
      }
    });
  }
  {
    auto span = tracer.span("stage.sim.dpor", "stage", who);
    ft::sim::detail::DporContext dctx(sys);
    const std::vector<Elem> noSleep;
    std::vector<Elem> out;
    bool reduced = false;
    std::uint64_t slept = 0;
    c.selectNs = timeStage(n, [&] {
      for (const Config& cfg : s.cfgs) {
        dctx.selectMoves(cfg, noSleep, out, reduced, slept);
        sink += out.size();
      }
    });
    c.childSleepNs = timeStage(childOps, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = 0; k < moves[i].size(); ++k) {
          dctx.childSleep(s.cfgs[i], noSleep, moves[i].data(), k,
                          moves[i][k], out);
          sink += out.size();
        }
      }
    });
  }
  {
    auto span = tracer.span("stage.util.visited", "stage", who);
    using Store = ft::util::DeltaKeyStore;
    std::unique_ptr<Store> store;
    std::vector<std::uint32_t> parentIds(n);
    auto freshExact = [&] { store = std::make_unique<Store>(); };
    auto insertExact = [&] {
      for (const std::string& k : s.keys) sink += store->insert(k).fresh;
    };
    c.exactInsertNs = timeStage(n, freshExact, insertExact);
    c.exactHitNs = timeStage(n, insertExact);
    // Compressed tier: each key is delta-encoded against its BFS
    // parent, which is stored (untimed) first, as in the engines.
    auto freshCompressed = [&] {
      store = std::make_unique<Store>();
      for (std::size_t i = 0; i < n; ++i) {
        parentIds[i] = store->insert(s.parentKeys[i]).id;
      }
    };
    auto insertCompressed = [&] {
      for (std::size_t i = 0; i < n; ++i) {
        sink += store->insert(s.keys[i], parentIds[i]).fresh;
      }
    };
    // The root is its own parent, so its timed insert is a hit.
    c.compressedInsertNs = timeStage(n, freshCompressed, insertCompressed);
    c.compressedHitNs = timeStage(n, insertCompressed);
  }
  {
    auto span = tracer.span("stage.util.frame", "stage", who);
    std::vector<std::string> frames(n);
    double bytes = 0.0;
    c.frameEncodeNs = timeStage(n, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        frames[i] = ft::fleet::encodeForward({i, s.paths[i]});
      }
    });
    for (const std::string& f : frames) bytes += static_cast<double>(f.size());
    c.forwardBytes = n ? bytes / static_cast<double>(n) : 0.0;
    ft::util::Frame frame;
    c.frameDecodeNs = timeStage(n, [&] {
      ft::util::FrameDecoder dec;
      for (const std::string& f : frames) {
        dec.feed(f);
        if (dec.next(frame) == ft::util::FrameDecoder::Status::Frame) {
          const auto msg = ft::fleet::decodeForward(frame.payload);
          sink += msg ? msg->path.size() : 0;
        }
      }
    });
  }
  {
    auto span = tracer.span("stage.sim.shard.replay", "stage", who);
    c.replayDepth =
        n ? static_cast<double>(pathSteps) / static_cast<double>(n) : 0.0;
    c.replayNsPerStep = timeStage(pathSteps, [&] {
      for (const SchedPath& p : s.paths) {
        sink += ft::sim::replayPath(sys, p).has_value();
      }
    });
  }
  {
    auto span = tracer.span("stage.sim.shard.closure", "stage", who);
    ft::sim::ShardExplorer a(sys, 0, 2), b(sys, 1, 2);
    a.seedInitial();
    b.seedInitial();
    const auto forward = [&](int shard, const SchedPath& path) {
      (shard == 0 ? a : b).offer(path);
    };
    const double t0 = nowSeconds();
    while (a.step(256, forward) + b.step(256, forward) > 0 &&
           a.stats().admitted + b.stats().admitted < kShardCap) {
    }
    c.shardSeconds = nowSeconds() - t0;
    c.shardStates = a.stats().admitted + b.stats().admitted;
    span.arg("states", std::to_string(c.shardStates));
  }
  gSink = sink;
  return c;
}

}  // namespace bench

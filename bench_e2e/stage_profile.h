// Stage profile of the traced run: the cost of each stage of a state
// expansion, measured on real states of a workload's systems.
//
// A bench-side unreduced BFS admits up to 524,288 states of the system
// and keeps every 64th one (with its BFS path), at most 8,192.  Each
// stage is then timed in batches over the whole sample, so the clock is
// read once per batch rather than per call, and the median batch gives
// the stage's ns/op.  Multiplying ns/op by the engine's ops/state (from
// its telemetry) predicts how much of the engine's ns/state the stages
// account for.
#pragma once

#include <cstdint>
#include <string>

#include "sim/machine.h"
#include "trace.h"

namespace bench {

struct StageCosts {
  std::uint64_t samples = 0;
  // ns per operation.
  double enabledNs = 0;     ///< detail::enabledMovesInto, per state
  double execNs = 0;        ///< Config copy + execElem, per successor
  double keyNs = 0;         ///< Config::behavioralKeyInto, per state
  double selectNs = 0;      ///< DporContext::selectMoves, per state
  double childSleepNs = 0;  ///< DporContext::childSleep, per successor
  double exactInsertNs = 0;  ///< DeltaKeyStore::insert, keyframe, fresh
  double exactHitNs = 0;     ///< same, key already present
  double compressedInsertNs = 0;  ///< delta against the BFS parent, fresh
  double compressedHitNs = 0;
  double frameEncodeNs = 0;  ///< fleet::encodeForward (message + frame)
  double frameDecodeNs = 0;  ///< FrameDecoder + fleet::decodeForward
  double replayNsPerStep = 0;  ///< sim::replayPath, per path step
  double replayDepth = 0;      ///< mean BFS path length of the sample
  double forwardBytes = 0;     ///< mean encoded ForwardMsg frame size
  /// In-process 2-shard ShardExplorer closure, capped at 100,000
  /// admitted states.
  double shardSeconds = 0;
  std::uint64_t shardStates = 0;
};

/// Measure every stage on `sys`; spans go to `tracer` under `label`.
StageCosts profileStages(const fencetrade::sim::System& sys,
                         const std::string& label, Tracer& tracer);

}  // namespace bench

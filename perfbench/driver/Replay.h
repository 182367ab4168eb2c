//===- perfbench/driver/Replay.h - Serial per-layer replay ------*- C++ -*-===//
//
// Part of the anosy-cpp benchmark (see perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's view into registration. The program has no spans of
/// its own yet, so the benchmark calls each layer's public function itself
/// — lint, canonicalize and cache probe, tape compile, synthesis,
/// verification — serially and with default options, and records one span
/// per call. Serial calls make the node counts repeat exactly.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include "Workloads.h"

#include "cache/ArtifactCache.h"
#include "expr/Module.h"

namespace perfbench {

struct ReplayOptions {
  /// Lint threshold (-1 = no published policy threshold).
  int64_t MinSize = -1;
  /// Powerset size; 0 selects the interval domain.
  unsigned K = 0;
  /// Add node and reject counts to the exact counters.
  bool CountExact = false;
};

/// Replays registration of \p M layer by layer into \p Log under request
/// id \p Req: each query is canonicalized and probed in \p Cache, and its
/// replayed artifact is stored there on a miss. Returns the microseconds
/// spent in the layers registration itself runs (tape compile, synthesis,
/// verification).
double replayLayers(RunContext &Ctx, SpanLog &Log, uint64_t Req,
                    const anosy::Module &M, const ReplayOptions &Opt,
                    anosy::ArtifactCache &Cache);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H

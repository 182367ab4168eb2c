//===- perfbench/driver/Util.h - Shared benchmark machinery -----*- C++ -*-===//
//
// Part of the anosy-cpp benchmark (see perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload needs: a steady clock, the process's resident-set
/// and thread high-water marks, the span recorder of the traced run, the
/// exhaustive correctness oracle, and the raw-result writer whose output
/// perfbench/run.py turns into the report.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_UTIL_H
#define PERFBENCH_UTIL_H

#include "domains/Box.h"
#include "domains/PowerBox.h"
#include "expr/Eval.h"
#include "expr/Schema.h"
#include "support/Rng.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}
inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return secondsBetween(A, B) * 1e3;
}
inline double usBetween(Clock::time_point A, Clock::time_point B) {
  return secondsBetween(A, B) * 1e6;
}

/// Process high-water marks. The kernel keeps the resident-set peak
/// (VmHWM of /proc/self/status); the thread count has no peak field, so
/// sample() counts the live threads under /proc/self/task wherever
/// threads may have been added.
class ProcWatch {
public:
  void sample();
  double peakRssMb() const;
  unsigned threadsPeak() const { return ThreadsPeak.load(); }

private:
  std::atomic<unsigned> ThreadsPeak{0};
};

/// One span of the traced run: a timed call from the benchmark into a
/// layer's public function.
struct Span {
  std::string Name;
  double StartUs = 0;
  double EndUs = 0;
  /// Index of the enclosing span in the same log; -1 for a root.
  int64_t Parent = -1;
  /// Spans of one request share this id.
  uint64_t Request = 0;
};

/// Per-thread span log. Disabled logs record nothing and cost one branch,
/// so untraced runs carry no tracing work.
class SpanLog {
public:
  SpanLog(bool Enabled, Clock::time_point Epoch)
      : Enabled(Enabled), Epoch(Epoch) {}

  bool enabled() const { return Enabled; }
  /// Opens a span; returns its index (or -1 when disabled).
  int64_t open(const char *Name, uint64_t Request);
  /// Closes the span \p Index; returns its duration in microseconds (0
  /// for the -1 a disabled log hands out).
  double close(int64_t Index);
  /// Records a span whose endpoints were measured by the caller.
  void add(const char *Name, uint64_t Request, Clock::time_point Start,
           Clock::time_point End);
  const std::vector<Span> &spans() const { return Spans; }

private:
  bool Enabled;
  Clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<int64_t> Open;
};

/// RAII span over a SpanLog.
class ScopedSpan {
public:
  ScopedSpan(SpanLog &Log, const char *Name, uint64_t Request)
      : Log(Log), Index(Log.open(Name, Request)) {}
  ~ScopedSpan() { Log.close(Index); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanLog &Log;
  int64_t Index;
};

/// Named sample sets and counters a workload hands to the writer.
struct RawResult {
  std::map<std::string, std::vector<double>> Samples;
  std::map<std::string, double> Values;
  /// Work counters, kept apart from wall time.
  std::map<std::string, double> Counters;
  /// Failures by kind: shed, deadline, error, wrong-answer, unsound.
  std::map<std::string, uint64_t> Failures;
  uint64_t Attempted = 0;
  /// Human-readable descriptions of the first failures.
  std::vector<std::string> Notes;
  /// Free-form per-step rows (the serve ladder).
  std::vector<std::map<std::string, double>> Ladder;

  void fail(const std::string &Kind, const std::string &Note);
  uint64_t failed() const;
};

/// Writes \p R, the span logs and the host facts as one JSON object.
bool writeRawResult(const std::string &Path, const std::string &Workload,
                    uint64_t Seed, bool Trace, const RawResult &R,
                    const std::vector<const SpanLog *> &Logs,
                    const std::string &SpanFile);

/// Exact number of secrets in \p S whose answers to every (query, answer)
/// pair in \p Steps match — the attacker's true knowledge after those
/// answered downgrades, by enumeration of the whole schema.
int64_t exactPosteriorSize(
    const anosy::Schema &S,
    const std::vector<std::pair<anosy::ExprRef, bool>> &Steps);

/// Samples up to \p Samples member points of \p Set and checks that the
/// query answers \p Expected on each. Returns false on the first point
/// that disagrees.
bool spotCheckSet(const anosy::Box &Set, const anosy::Expr &Query,
                  bool Expected, anosy::Rng &R, unsigned Samples);
bool spotCheckSet(const anosy::PowerBox &Set, const anosy::Expr &Query,
                  bool Expected, anosy::Rng &R, unsigned Samples);

/// A seeded walk over the points of a 2-D square [Lo, Hi]^2 that visits
/// every point once before repeating: fresh secrets for independent users.
class FreshPoints {
public:
  FreshPoints(int64_t Lo, int64_t Hi, uint64_t Seed);
  anosy::Point next();

private:
  int64_t Lo, Side;
  uint64_t N, Step, Cur;
};

} // namespace perfbench

#endif // PERFBENCH_UTIL_H

//===- perfbench/driver/Util.cpp - Shared benchmark machinery -------------===//

#include "Util.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

using namespace perfbench;
using namespace anosy;

namespace {

/// Reads one "Key:   <number> ..." line of /proc/self/status; 0 if absent.
uint64_t procStatusField(const char *Key) {
  std::ifstream In("/proc/self/status");
  std::string Line;
  size_t KeyLen = std::char_traits<char>::length(Key);
  while (std::getline(In, Line))
    if (Line.compare(0, KeyLen, Key) == 0 && Line.size() > KeyLen &&
        Line[KeyLen] == ':')
      return std::strtoull(Line.c_str() + KeyLen + 1, nullptr, 10);
  return 0;
}

/// Threads of this process that are not exiting. The Threads: field of
/// /proc/self/status also counts a thread that pthread_join has already
/// returned for but the kernel has not yet reaped, so right after a pool is
/// joined it reads high by a varying amount; a task's stat flags carry
/// PF_EXITING from the start of its exit, before the join can return.
unsigned liveThreads() {
  constexpr unsigned long PfExiting = 0x4;
  unsigned Live = 0;
  std::error_code Ec;
  for (const auto &Task :
       std::filesystem::directory_iterator("/proc/self/task", Ec)) {
    std::ifstream In(Task.path() / "stat");
    std::string Stat;
    if (!std::getline(In, Stat))
      continue;
    // Fields after the parenthesized command: state ppid pgrp session
    // tty_nr tpgid flags.
    size_t Close = Stat.rfind(')');
    if (Close == std::string::npos)
      continue;
    std::istringstream Fields(Stat.substr(Close + 1));
    std::string Skip;
    unsigned long Flags = 0;
    for (int I = 0; I != 6; ++I)
      Fields >> Skip;
    if (Fields >> Flags && (Flags & PfExiting) == 0)
      ++Live;
  }
  return Live;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  size_t Mid = V.size() / 2;
  std::nth_element(V.begin(), V.begin() + Mid, V.end());
  double Hi = V[Mid];
  if (V.size() % 2 == 1)
    return Hi;
  double Lo = *std::max_element(V.begin(), V.begin() + Mid);
  return (Lo + Hi) / 2;
}

} // namespace

void ProcWatch::sample() {
  unsigned Now = liveThreads();
  unsigned Prev = ThreadsPeak.load();
  while (Now > Prev && !ThreadsPeak.compare_exchange_weak(Prev, Now)) {
  }
}

double ProcWatch::peakRssMb() const {
  return static_cast<double>(procStatusField("VmHWM")) / 1024.0;
}

int64_t SpanLog::open(const char *Name, uint64_t Request) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.StartUs = usBetween(Epoch, Clock::now());
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Request = Request;
  Spans.push_back(std::move(S));
  Open.push_back(static_cast<int64_t>(Spans.size() - 1));
  return Open.back();
}

double SpanLog::close(int64_t Index) {
  if (Index < 0)
    return 0;
  Span &S = Spans[static_cast<size_t>(Index)];
  S.EndUs = usBetween(Epoch, Clock::now());
  if (!Open.empty() && Open.back() == Index)
    Open.pop_back();
  return S.EndUs - S.StartUs;
}

void SpanLog::add(const char *Name, uint64_t Request, Clock::time_point Start,
                  Clock::time_point End) {
  if (!Enabled)
    return;
  Span S;
  S.Name = Name;
  S.StartUs = usBetween(Epoch, Start);
  S.EndUs = usBetween(Epoch, End);
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Request = Request;
  Spans.push_back(std::move(S));
}

void RawResult::fail(const std::string &Kind, const std::string &Note) {
  ++Failures[Kind];
  if (Notes.size() < 20)
    Notes.push_back(Kind + ": " + Note);
}

uint64_t RawResult::failed() const {
  uint64_t N = 0;
  for (const auto &[Kind, Count] : Failures)
    N += Count;
  return N;
}

bool perfbench::writeRawResult(const std::string &Path,
                               const std::string &Workload, uint64_t Seed,
                               bool Trace, const RawResult &R,
                               const std::vector<const SpanLog *> &Logs,
                               const std::string &SpanFile) {
  std::ostringstream O;
  O << "{\"workload\": " << jsonString(Workload) << ", \"seed\": " << Seed
    << ", \"trace\": " << (Trace ? 1 : 0);
  O << ", \"host\": {\"compiler\": " << jsonString(std::string("g++ ") +
                                                  __VERSION__)
    << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
    << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
    << "}";
  O << ", \"attempted\": " << R.Attempted << ", \"failed\": " << R.failed();
  O << ", \"failures\": {";
  bool First = true;
  for (const auto &[Kind, Count] : R.Failures) {
    O << (First ? "" : ", ") << jsonString(Kind) << ": " << Count;
    First = false;
  }
  O << "}, \"notes\": [";
  for (size_t I = 0; I != R.Notes.size(); ++I)
    O << (I ? ", " : "") << jsonString(R.Notes[I]);
  O << "], \"values\": {";
  First = true;
  for (const auto &[Key, V] : R.Values) {
    O << (First ? "" : ", ") << jsonString(Key) << ": " << jsonNumber(V);
    First = false;
  }
  O << "}, \"counters\": {";
  First = true;
  for (const auto &[Key, V] : R.Counters) {
    O << (First ? "" : ", ") << jsonString(Key) << ": " << jsonNumber(V);
    First = false;
  }
  O << "}, \"samples\": {";
  First = true;
  for (const auto &[Key, Vs] : R.Samples) {
    O << (First ? "" : ", ") << jsonString(Key) << ": [";
    for (size_t I = 0; I != Vs.size(); ++I)
      O << (I ? "," : "") << jsonNumber(Vs[I]);
    O << "]";
    First = false;
  }
  O << "}, \"ladder\": [";
  for (size_t I = 0; I != R.Ladder.size(); ++I) {
    O << (I ? ", " : "") << "{";
    bool F = true;
    for (const auto &[Key, V] : R.Ladder[I]) {
      O << (F ? "" : ", ") << jsonString(Key) << ": " << jsonNumber(V);
      F = false;
    }
    O << "}";
  }
  O << "]";

  // Span durations aggregated by name; the spans themselves go to
  // SpanFile, one JSON object per line.
  std::map<std::string, std::vector<double>> Durations;
  std::ofstream SpanOut;
  if (Trace && !SpanFile.empty())
    SpanOut.open(SpanFile);
  for (size_t L = 0; L != Logs.size(); ++L)
    for (const Span &S : Logs[L]->spans()) {
      Durations[S.Name].push_back(S.EndUs - S.StartUs);
      if (SpanOut)
        SpanOut << "{\"name\": " << jsonString(S.Name)
                << ", \"start_us\": " << jsonNumber(S.StartUs)
                << ", \"end_us\": " << jsonNumber(S.EndUs)
                << ", \"parent\": " << S.Parent << ", \"log\": " << L
                << ", \"request\": " << S.Request << "}\n";
    }
  O << ", \"spans\": {";
  First = true;
  for (const auto &[Name, Ds] : Durations) {
    double Sum = 0;
    for (double D : Ds)
      Sum += D;
    O << (First ? "" : ", ") << jsonString(Name) << ": {\"count\": "
      << Ds.size() << ", \"sum_us\": " << jsonNumber(Sum)
      << ", \"median_us\": " << jsonNumber(median(Ds)) << "}";
    First = false;
  }
  O << "}}\n";

  std::ofstream Out(Path);
  Out << O.str();
  return static_cast<bool>(Out);
}

int64_t perfbench::exactPosteriorSize(
    const Schema &S, const std::vector<std::pair<ExprRef, bool>> &Steps) {
  size_t N = S.arity();
  Point P(N);
  for (size_t I = 0; I != N; ++I)
    P[I] = S.field(I).Lo;
  int64_t Count = 0;
  while (true) {
    bool Match = true;
    for (const auto &[Q, Answer] : Steps)
      if (evalBool(*Q, P) != Answer) {
        Match = false;
        break;
      }
    Count += Match;
    size_t D = 0;
    while (D != N && P[D] == S.field(D).Hi) {
      P[D] = S.field(D).Lo;
      ++D;
    }
    if (D == N)
      return Count;
    ++P[D];
  }
}

namespace {

Point samplePoint(const Box &B, Rng &R) {
  Point P(B.arity());
  for (size_t I = 0; I != B.arity(); ++I)
    P[I] = R.range(B.dim(I).Lo, B.dim(I).Hi);
  return P;
}

} // namespace

bool perfbench::spotCheckSet(const Box &Set, const Expr &Query, bool Expected,
                             Rng &R, unsigned Samples) {
  if (Set.isEmpty())
    return true;
  for (unsigned I = 0; I != Samples; ++I)
    if (evalBool(Query, samplePoint(Set, R)) != Expected)
      return false;
  return true;
}

bool perfbench::spotCheckSet(const PowerBox &Set, const Expr &Query,
                             bool Expected, Rng &R, unsigned Samples) {
  const std::vector<Box> &Inc = Set.includes();
  if (Inc.empty())
    return true;
  for (unsigned I = 0; I != Samples; ++I) {
    int64_t Pick = R.range(0, static_cast<int64_t>(Inc.size()) - 1);
    const Box &B = Inc[static_cast<size_t>(Pick)];
    if (B.isEmpty())
      continue;
    Point P = samplePoint(B, R);
    if (Set.member(P) && evalBool(Query, P) != Expected)
      return false;
  }
  return true;
}

FreshPoints::FreshPoints(int64_t Lo, int64_t Hi, uint64_t Seed)
    : Lo(Lo), Side(Hi - Lo + 1) {
  N = static_cast<uint64_t>(Side * Side);
  Rng R(Seed);
  // A step coprime with N walks a full cycle of Z_N.
  auto Gcd = [](uint64_t A, uint64_t B) {
    while (B != 0) {
      uint64_t T = A % B;
      A = B;
      B = T;
    }
    return A;
  };
  do
    Step = R.next() % N;
  while (Step == 0 || Gcd(Step, N) != 1);
  Cur = R.next() % N;
}

Point FreshPoints::next() {
  Cur = (Cur + Step) % N;
  return {Lo + static_cast<int64_t>(Cur) % Side,
          Lo + static_cast<int64_t>(Cur) / Side};
}

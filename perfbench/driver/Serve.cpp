//===- perfbench/driver/Serve.cpp - The serve-steady workload -------------===//
//
// An open loop of independent users against an in-process
// service::MonitorDaemon with default options (two workers, queue of 64,
// per-tenant sessions with default SessionOptions), driven through its
// front door (submit) by one generator thread (the caller) and one
// collector thread.
//
// Tenants are §6.2-shaped: `nearby` queries over a 400×400 location with
// a min-size-100 policy. Scenario-family tenants are the wrong input here:
// their schemas hold at most a few thousand secrets, users collide on
// secret values, and the tracker keys knowledge by value, so most
// downgrades would be refusals. Each user gets a fresh secret and asks a
// short sequence of distinct queries of one tenant.
//
// Requests go out on a seeded Poisson schedule at each rate of a fixed
// ladder. Latency runs from the scheduled send time to when the collector
// observes the response, so a stall of the generator or of the daemon is
// charged to every request it delays; how late the generator ran is
// reported beside it.
//
// A run is Passes repetitions of set-up, the whole ladder, and restarts,
// so that set-up, registration and restart samples are spread over the
// run like the downgrade samples rather than taken in one burst.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "core/ArtifactIO.h"
#include "expr/Parser.h"
#include "service/Daemon.h"

#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <future>
#include <thread>

using namespace perfbench;
using namespace anosy;
using namespace anosy::service;

namespace {

constexpr unsigned SetupTenants = 32;
constexpr unsigned QueriesPerTenant = 8;
constexpr unsigned StepsPerUser = 3;
constexpr int64_t MinSize = 100;
constexpr unsigned Passes = 3;
constexpr unsigned RestartsPerPass = 5;
/// Every OracleEvery-th user is replayed against exhaustive enumeration.
constexpr unsigned OracleEvery = 101;
/// Downgrades the traced run replays directly against the tracker.
constexpr unsigned ReplayDowngrades = 3000;

/// The ladder of offered rates (requests per second). A stalled generator
/// sends the requests that fell due during the stall at once when it
/// resumes; the top rate keeps that burst under the default 64-deep queue
/// for stalls up to ~40 ms, which a shared virtual machine does have.
constexpr double Rates[] = {250, 500, 1000, 1500};

struct TenantInput {
  std::string Name;
  std::string Source;
  Module M;
};

/// The set-up tenants. Restaurant origins are stratified over a 16×16 grid
/// of the location space (each cell used once per 256 origins, jittered
/// inside the cell) so that no seed draws an unusually clustered map.
std::vector<TenantInput> setupTenants(uint64_t Seed) {
  Rng R(Seed ^ 0x7e4a47ULL);
  constexpr unsigned Cells = 16;
  std::vector<unsigned> Cell(Cells * Cells);
  for (unsigned I = 0; I != Cell.size(); ++I)
    Cell[I] = I;
  size_t Next = Cell.size();
  std::vector<TenantInput> Ts;
  for (unsigned T = 0; T != SetupTenants; ++T) {
    std::string Src = "secret UserLoc { x: int[0, 400], y: int[0, 400] }\n";
    for (unsigned Q = 0; Q != QueriesPerTenant; ++Q) {
      if (Next == Cell.size()) {
        for (size_t I = Cell.size(); I > 1; --I)
          std::swap(Cell[I - 1], Cell[static_cast<size_t>(R.range(
                                     0, static_cast<int64_t>(I) - 1))]);
        Next = 0;
      }
      unsigned C = Cell[Next++];
      int64_t Side = 400 / Cells;
      int64_t OX = (C % Cells) * Side + R.range(0, Side - 1);
      int64_t OY = (C / Cells) * Side + R.range(0, Side - 1);
      Src += "query q" + std::to_string(Q) + " = abs(x - " +
             std::to_string(OX) + ") + abs(y - " + std::to_string(OY) +
             ") <= 100\n";
    }
    TenantInput In;
    In.Name = "t" + std::to_string(T);
    In.Source = std::move(Src);
    In.M = *parseModule(In.Source);
    Ts.push_back(std::move(In));
  }
  return Ts;
}

/// One downgrade in flight between the generator and the collector.
struct Pending {
  /// Ladder step.
  unsigned Phase = 0;
  uint64_t Id = 0;
  uint32_t User = 0;
  uint16_t Tenant = 0;
  uint8_t Query = 0;
  Point Secret;
  Clock::time_point Sched, Sent;
  std::future<ServiceResponse> F;
};

/// Every downgrade of one ladder step, in microseconds since the run's
/// epoch; run.py derives latency and lateness from them.
struct PhaseLog {
  std::vector<double> SchedUs, SentUs, DoneUs, Answered;
};

/// What the collector learns; the generator reads it only after
/// quiesce() or finish().
struct Tally {
  std::vector<PhaseLog> Phases;
  std::vector<uint8_t> UserAnswered;
  /// (query, answer) per answered step of each oracle user.
  std::map<uint32_t, std::vector<std::pair<uint8_t, bool>>> OracleSteps;
  std::map<uint32_t, uint16_t> OracleTenant;
  uint64_t Answered = 0, Refused = 0, StaticBottom = 0;
  std::vector<double> ResponseUs, WaitUs;
  Clock::time_point LastDone;
  /// Failures seen by the collector, merged into the run's after finish().
  RawResult Faults;
};

/// The generator→collector handoff and the collector thread itself.
class Collector {
public:
  Collector(RunContext &Ctx, const std::vector<TenantInput> &Tenants,
            SpanLog &Log)
      : Ctx(Ctx), Tenants(Tenants), Log(Log) {
    T.Phases.resize(std::size(Rates));
    Thread = std::thread([this] { loop(); });
  }
  ~Collector() { finish(); }
  Collector(const Collector &) = delete;
  Collector &operator=(const Collector &) = delete;

  void push(Pending P) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Queue.push_back(std::move(P));
      ++Pushed;
    }
    Cv.notify_one();
  }

  /// Blocks until every pushed request has been observed.
  void quiesce() {
    std::unique_lock<std::mutex> Lock(Mu);
    DoneCv.wait(Lock, [&] { return Observed == Pushed; });
  }

  void finish() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      if (Stop)
        return;
      Stop = true;
    }
    Cv.notify_one();
    Thread.join();
  }

  Tally &tally() { return T; }

private:
  void loop();
  void observe(Pending &P, const ServiceResponse &R, Clock::time_point Done);

  RunContext &Ctx;
  const std::vector<TenantInput> &Tenants;
  SpanLog &Log;
  Tally T;
  std::mutex Mu;
  std::condition_variable Cv, DoneCv;
  std::deque<Pending> Queue;
  uint64_t Pushed = 0, Observed = 0;
  bool Stop = false;
  std::thread Thread;
};

void Collector::loop() {
  unsigned Seen = 0;
  while (true) {
    Pending P;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      Cv.wait(Lock, [&] { return Stop || !Queue.empty(); });
      if (Queue.empty())
        return;
      P = std::move(Queue.front());
      Queue.pop_front();
    }
    ServiceResponse R = P.F.get();
    observe(P, R, Clock::now());
    if (++Seen % 256 == 0)
      Ctx.Proc.sample();
    {
      std::lock_guard<std::mutex> Lock(Mu);
      ++Observed;
    }
    DoneCv.notify_all();
  }
}

void Collector::observe(Pending &P, const ServiceResponse &R,
                        Clock::time_point Done) {
  RawResult &Out = T.Faults;
  T.LastDone = Done;
  if (Log.enabled()) {
    double ObservedUs = usBetween(P.Sched, Done);
    Log.add("service.request", P.Id, P.Sched, Done);
    T.ResponseUs.push_back(R.Seconds * 1e6);
    T.WaitUs.push_back(ObservedUs - R.Seconds * 1e6);
  }
  PhaseLog &Ph = T.Phases[P.Phase];
  Ph.SchedUs.push_back(usBetween(Ctx.Epoch, P.Sched));
  Ph.SentUs.push_back(usBetween(Ctx.Epoch, P.Sent));
  Ph.DoneUs.push_back(usBetween(Ctx.Epoch, Done));
  Ph.Answered.push_back(0);
  switch (R.Status) {
  case ResponseStatus::Overloaded:
    Out.fail("shed", "request shed by the daemon");
    return;
  case ResponseStatus::Error:
    Out.fail("error", R.Detail);
    return;
  case ResponseStatus::Bottom:
    if (R.Reason == ReasonCode::StaticallyRejected)
      ++T.StaticBottom;
    else
      Out.fail(R.Reason == ReasonCode::Deadline ? "deadline" : "bottom",
               "downgrade answered bottom: " + R.Detail);
    return;
  case ResponseStatus::Refused:
    ++T.Refused;
    return;
  case ResponseStatus::Ok:
    break;
  }
  // Answered: the answer must be the query's value on the secret.
  const TenantInput &Ten = Tenants[P.Tenant];
  const QueryDef &Q = Ten.M.queries()[P.Query];
  if (!R.HasBool || R.BoolValue != evalBool(*Q.Body, P.Secret)) {
    Out.fail("wrong-answer", "downgrade of " + Ten.Name + "/" + Q.Name);
    return;
  }
  ++T.Answered;
  Ph.Answered.back() = 1;
  if (P.User >= T.UserAnswered.size())
    T.UserAnswered.resize(P.User + 1, 0);
  ++T.UserAnswered[P.User];
  if (P.User % OracleEvery == 0) {
    T.OracleSteps[P.User].emplace_back(P.Query, R.BoolValue);
    T.OracleTenant[P.User] = P.Tenant;
  }
}

/// Sleeps, then spins, until \p When.
void waitUntil(Clock::time_point When) {
  auto Slack = std::chrono::microseconds(200);
  if (Clock::now() + Slack < When)
    std::this_thread::sleep_until(When - Slack);
  while (Clock::now() < When) {
  }
}

/// The seeded user stream: user u asks StepsPerUser distinct queries of one
/// tenant about a secret no earlier user of that tenant had.
class UserStream {
public:
  explicit UserStream(uint64_t Seed) : R(Seed ^ 0x05e25ULL) {
    for (unsigned T = 0; T != SetupTenants; ++T)
      Fresh.emplace_back(0, 400, Seed * 31 + T);
  }

  /// Fills the routing fields of the next request.
  void next(Pending &P) {
    if (Step == 0) {
      Tenant = static_cast<uint16_t>(R.range(0, SetupTenants - 1));
      Secret = Fresh[Tenant].next();
      for (unsigned I = 0; I != QueriesPerTenant; ++I)
        Order[I] = static_cast<uint8_t>(I);
      for (unsigned I = 0; I != StepsPerUser; ++I)
        std::swap(Order[I],
                  Order[static_cast<size_t>(R.range(I, QueriesPerTenant - 1))]);
    }
    P.User = User;
    P.Tenant = Tenant;
    P.Query = Order[Step];
    P.Secret = Secret;
    if (++Step == StepsPerUser) {
      Step = 0;
      ++User;
    }
  }
  uint32_t users() const { return User + (Step != 0); }

private:
  Rng R;
  std::vector<FreshPoints> Fresh;
  uint32_t User = 0;
  unsigned Step = 0;
  uint16_t Tenant = 0;
  Point Secret;
  uint8_t Order[QueriesPerTenant] = {};
};

/// One timed set-up: generate the inputs, start a daemon with default
/// options, and register the tenants through the front door.
std::unique_ptr<MonitorDaemon> setupPass(RunContext &Ctx) {
  Clock::time_point T0 = Clock::now();
  std::vector<TenantInput> Tenants = setupTenants(Ctx.Seed);
  auto D = std::make_unique<MonitorDaemon>(DaemonOptions{});
  if (auto S = D->start(); !S) {
    Ctx.Out.fail("error", "daemon start: " + S.error().message());
    return nullptr;
  }
  for (const TenantInput &T : Tenants) {
    ServiceRequest Reg;
    Reg.Kind = RequestKind::Register;
    Reg.Tenant = T.Name;
    Reg.ModuleSource = T.Source;
    Reg.MinSize = MinSize;
    ++Ctx.Out.Attempted;
    Clock::time_point R0 = Clock::now();
    ServiceResponse R = D->call(std::move(Reg));
    Ctx.Out.Samples["register_ms"].push_back(msBetween(R0, Clock::now()));
    Ctx.Out.Samples["register_queries"].push_back(R.Queries);
    if (R.Status != ResponseStatus::Ok) {
      Ctx.Out.fail("error", "set-up registration: " + R.Detail);
      return nullptr;
    }
  }
  Ctx.Out.Samples["setup_s"].push_back(secondsBetween(T0, Clock::now()));
  Ctx.Proc.sample();
  return D;
}

/// Sends one downgrade at its scheduled time.
void sendDowngrade(MonitorDaemon &D, Collector &C, UserStream &Users,
                   const std::vector<TenantInput> &Tenants, SpanLog &Log,
                   unsigned Phase, uint64_t Id, Clock::time_point Sched,
                   double &QueueDepthMax) {
  Pending P;
  P.Phase = Phase;
  P.Id = Id;
  Users.next(P);
  ServiceRequest Req;
  Req.Kind = RequestKind::Downgrade;
  Req.Tenant = Tenants[P.Tenant].Name;
  Req.Name = Tenants[P.Tenant].M.queries()[P.Query].Name;
  Req.Secret = P.Secret;
  waitUntil(Sched);
  P.Sched = Sched;
  P.Sent = Clock::now();
  int64_t S = Log.open("service.submit", Id);
  P.F = D.submit(std::move(Req));
  Log.close(S);
  if (Log.enabled())
    QueueDepthMax = std::max(QueueDepthMax, double(D.queueDepth()));
  C.push(std::move(P));
}

/// Restart: every tenant's session rebuilt from its exported knowledge
/// base, re-verified — the per-tenant work of the daemon's start()
/// salvage, without the disk. Timed over all tenants.
void restartTenants(RunContext &Ctx, const MonitorDaemon &D,
                    const std::vector<TenantInput> &Tenants) {
  std::vector<std::string> Kbs;
  for (const TenantInput &T : Tenants)
    if (const AnosySession<Box> *S = D.tenantSession(T.Name))
      Kbs.push_back(S->exportKnowledgeBase());
  ++Ctx.Out.Attempted;
  if (Kbs.size() != Tenants.size()) {
    Ctx.Out.fail("error", "tenant missing before restart");
    return;
  }
  Clock::time_point T0 = Clock::now();
  for (size_t I = 0; I != Kbs.size(); ++I) {
    auto S = AnosySession<Box>::createFromKnowledgeBase(
        Kbs[I], minSizePolicy<Box>(MinSize));
    if (!S || S->module().queries().size() != QueriesPerTenant ||
        !S->degradation().Queries.empty())
      Ctx.Out.fail("error", "restart of " + Tenants[I].Name + " failed");
  }
  Ctx.Out.Samples["salvage_s"].push_back(secondsBetween(T0, Clock::now()));
}

/// Traced run only: the tracker and ArtifactIO calls a downgrade and a KB
/// flush make, replayed by the benchmark on the live tenants' artifacts.
void replayServeLayers(RunContext &Ctx, SpanLog &Log, const MonitorDaemon &D,
                       const std::vector<TenantInput> &Tenants) {
  RawResult &Out = Ctx.Out;
  double Tracked = 0;
  std::vector<KnowledgeTracker<Box>> Trackers;
  for (const TenantInput &T : Tenants) {
    Trackers.emplace_back(T.M.schema(), minSizePolicy<Box>(MinSize));
    const AnosySession<Box> *S = D.tenantSession(T.Name);
    if (S == nullptr)
      continue;
    Tracked += static_cast<double>(S->tracker().trackedSecretCount());
    for (const QueryDef &Q : T.M.queries())
      if (const QueryInfo<Box> *I = S->tracker().queryInfo(Q.Name))
        Trackers.back().registerQuery(*I);
  }
  Out.Values["core.tracked_secrets"] = Tracked;

  UserStream Users(Ctx.Seed ^ 0x12e91a7ULL);
  for (uint64_t I = 0; I != ReplayDowngrades; ++I) {
    Pending P;
    Users.next(P);
    KnowledgeTracker<Box> &Tr = Trackers[P.Tenant];
    const std::string &Name = Tenants[P.Tenant].M.queries()[P.Query].Name;
    const QueryInfo<Box> *Info = Tr.queryInfo(Name);
    if (Info == nullptr)
      continue;
    int64_t A = Log.open("domains.approx", I);
    auto Post = Info->approx(Tr.knowledgeFor(P.Secret));
    Log.close(A);
    (void)Post;
    int64_t Dg = Log.open("core.downgrade", I);
    auto R = Tr.downgrade(P.Secret, Name);
    Log.close(Dg);
    // A Box posterior is always one box.
    if (R)
      Out.Samples["domains.knowledge_boxes"].push_back(1);
  }

  std::string Dir = Ctx.WorkDir + "/replay-kb";
  std::filesystem::create_directories(Dir);
  for (size_t I = 0; I != Tenants.size(); ++I) {
    const AnosySession<Box> *S = D.tenantSession(Tenants[I].Name);
    if (S == nullptr)
      continue;
    int64_t Ser = Log.open("core.kb_serialize", I);
    std::string Text = S->exportKnowledgeBase();
    Log.close(Ser);
    int64_t W = Log.open("core.kb_write", I);
    auto Wrote = writeKnowledgeBaseFileAtomic(
        Dir + "/" + Tenants[I].Name + ".akb", Text);
    Log.close(W);
    if (!Wrote)
      Out.fail("error", "replayed kb write: " + Wrote.error().message());
    int64_t Rec = Log.open("core.kb_recover", I);
    auto Recovered = recoverKnowledgeBase<Box>(Text);
    Log.close(Rec);
    if (!Recovered || !Recovered->Damaged.empty())
      Out.fail("error", "replayed kb recover failed");
  }
}

/// Exhaustive check of the sampled users: the exact posterior after their
/// answered steps must stay above the policy threshold.
void runOracle(RunContext &Ctx, const std::vector<TenantInput> &Tenants,
               const Tally &T) {
  for (const auto &[User, Steps] : T.OracleSteps) {
    const TenantInput &Ten = Tenants[T.OracleTenant.at(User)];
    std::vector<std::pair<ExprRef, bool>> Exact;
    for (const auto &[Query, Answer] : Steps)
      Exact.emplace_back(Ten.M.queries()[Query].Body, Answer);
    if (exactPosteriorSize(Ten.M.schema(), Exact) <= MinSize)
      Ctx.Out.fail("unsound", "user " + std::to_string(User) +
                                  ": exact posterior at or below threshold");
  }
  Ctx.Out.Counters["oracle.users_checked"] =
      static_cast<double>(T.OracleSteps.size());
}

/// Moves the collector's records into the run's raw result.
void report(RunContext &Ctx, const Tally &T, uint32_t Users) {
  RawResult &Out = Ctx.Out;
  for (const auto &[Kind, Count] : T.Faults.Failures)
    Out.Failures[Kind] += Count;
  for (const std::string &Note : T.Faults.Notes)
    if (Out.Notes.size() < 20)
      Out.Notes.push_back(Note);
  for (size_t I = 0; I != T.Phases.size(); ++I) {
    std::string Prefix = "phase" + std::to_string(I);
    Out.Samples[Prefix + ".sched_us"] = T.Phases[I].SchedUs;
    Out.Samples[Prefix + ".sent_us"] = T.Phases[I].SentUs;
    Out.Samples[Prefix + ".done_us"] = T.Phases[I].DoneUs;
    Out.Samples[Prefix + ".answered"] = T.Phases[I].Answered;
  }
  std::vector<double> PerUser(Users, 0.0);
  for (size_t U = 0; U != T.UserAnswered.size() && U != Users; ++U)
    PerUser[U] = T.UserAnswered[U];
  Out.Samples["answered_per_user"] = std::move(PerUser);
  Out.Counters["downgrade.answered"] = static_cast<double>(T.Answered);
  Out.Counters["downgrade.refused"] = static_cast<double>(T.Refused);
  Out.Counters["downgrade.bottom"] = static_cast<double>(T.StaticBottom);
  if (Ctx.Trace) {
    Out.Samples["service.response_us"] = T.ResponseUs;
    Out.Samples["service.wait_us"] = T.WaitUs;
  }
}

} // namespace

void perfbench::runServeSteady(RunContext &Ctx) {
  const std::vector<TenantInput> Tenants = setupTenants(Ctx.Seed);
  constexpr unsigned Steps = std::size(Rates);
  SpanLog &GenLog = Ctx.newLog();
  SpanLog &ColLog = Ctx.newLog();
  Collector C(Ctx, Tenants, ColLog);
  Tally &T = C.tally();
  UserStream Users(Ctx.Seed);
  Rng Arrivals(Ctx.Seed ^ 0xa441a1ULL);
  uint64_t Id = 0;
  double QueueDepthMax = 0;
  double StepSeconds = Ctx.Seconds / (Passes * Steps);
  std::vector<double> DrainMs(Steps, 0.0);
  Ctx.Out.Values["register_chunk"] = SetupTenants;
  for (unsigned Pass = 0; Pass != Passes; ++Pass) {
    std::unique_ptr<MonitorDaemon> D = setupPass(Ctx);
    if (!D)
      break;
    for (unsigned Step = 0; Step != Steps; ++Step) {
      Clock::time_point Start = Clock::now() + std::chrono::milliseconds(1);
      double Offset = 0;
      while (true) {
        Offset += -std::log(1.0 - Arrivals.unit()) / Rates[Step];
        if (Offset >= StepSeconds)
          break;
        ++Ctx.Out.Attempted;
        sendDowngrade(*D, C, Users, Tenants, GenLog, Step, Id++,
                      Start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(Offset)),
                      QueueDepthMax);
      }
      Clock::time_point LastSend = Clock::now();
      C.quiesce();
      DrainMs[Step] =
          std::max(DrainMs[Step], msBetween(LastSend, T.LastDone));
    }
    DaemonStats St = D->stats();
    Ctx.Out.Counters["service.accepted"] += static_cast<double>(St.Accepted);
    Ctx.Out.Counters["service.shed"] += static_cast<double>(St.Shed);
    if (Ctx.Trace && Pass + 1 == Passes)
      replayServeLayers(Ctx, GenLog, *D, Tenants);
    for (unsigned I = 0; I != RestartsPerPass; ++I)
      restartTenants(Ctx, *D, Tenants);
    D->drain();
  }
  C.finish();
  for (unsigned Step = 0; Step != Steps; ++Step)
    Ctx.Out.Ladder.push_back(
        {{"rate", Rates[Step]}, {"drain_ms", DrainMs[Step]}});
  report(Ctx, T, Users.users());
  runOracle(Ctx, Tenants, T);
  if (Ctx.Trace)
    Ctx.Out.Values["service.queue_depth_max"] = QueueDepthMax;
}

//===- perfbench/src/rta_sweep.cpp - The rta_sweep workload ----------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One operation is one capacity-planning query: a fresh serial
/// SweepRunner over one seeded task set's neighbourhood, sockets 1-4 x
/// WCET scalings, under NPFP, EDF or FIFO. RTA fixpoints, the SBF, flat
/// curve tables and warm starts do all the work; no trace is involved.
/// Set-up parses each task set's spec and builds its points.
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "adequacy/spec_parser.h"
#include "core/curve_table.h"
#include "rossl/scheduler.h"
#include "rta/sweep.h"
#include "sim/environment.h"
#include "sim/workload.h"

#include <algorithm>
#include <stdexcept>

using namespace rprosa;

namespace perfbench {
namespace {

/// Task-count make-up of the query set, each count split evenly over
/// the three policies. A fixed make-up keeps the total work of a run the
/// same from seed to seed. Query time grows with the task count, so the
/// counts place each percentile well inside one group instead of on the
/// border between two, where it would follow the seed: the median (56th
/// of 111) is the middle 8-task query, and the 90th percentile the 31st
/// of the 42 16-task queries.
constexpr std::pair<std::size_t, std::size_t> Makeup[] = {
    {2, 21}, {4, 21}, {8, 27}, {16, 42}};
constexpr std::uint32_t MaxSockets = 4;
/// WCET scalings in percent of the base task set (25-35 % load, shared
/// evenly by its tasks): seven below full load and one, 200x, at which
/// every task alone is overloaded (its own load is at least 1.3).
/// Fixpoint iteration counts grow like 1 / |1 - load|, with load that of
/// a priority level and the work interfering with it, so a point with
/// such a load near 1 makes a query's cost, and with it the run's,
/// depend on the seed by far more than the bounds allow. At 5x, one NPFP
/// point whose interference load landed just above 1 took 212 ms against
/// 1-3 ms for the other overloaded points. At 200x every busy-window
/// search diverges geometrically: the overloaded points still iterate up
/// to RtaConfig::FixedPointCap, as every overloaded point does, but
/// about as often on every seed.
constexpr std::uint64_t ScalePct[] = {100, 115, 130, 145,
                                      160, 180, 200, 20000};
constexpr std::size_t NumScales = std::size(ScalePct);

struct Query {
  SystemDef Def;
  SchedPolicy Policy = SchedPolicy::Npfp;
  /// Points in (scaling, sockets) order: index = k * MaxSockets + (s - 1).
  std::vector<SweepPoint> Points;
  std::vector<long double> Util; ///< sum C_i/T_i per point.
  std::uint64_t SimSeed = 0;     ///< Seeds the simulated-point check.
};

SystemDef makeTaskSet(Rng &R, std::size_t NumTasks, std::size_t Policy,
                      std::uint64_t LoadPct) {
  static const char *const Policies[] = {"npfp", "edf", "fifo"};
  SystemShape Shape;
  Shape.Policy = Policies[Policy];
  Shape.Tasks = NumTasks;
  Shape.LoadPct = LoadPct;
  Shape.WcetLo = 2000;
  Shape.WcetHi = 20000;
  Shape.BurstLo = 1;
  Shape.PeriodStep = 100;
  return makeSystem(R, Shape);
}

/// Set-up: parse each base task set and build its neighbourhood.
std::vector<Query> buildQueries(std::uint64_t Seed) {
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 3);
  std::vector<std::pair<std::size_t, std::size_t>> Shapes; // tasks, policy
  for (const auto &[Tasks, Count] : Makeup)
    for (std::size_t K = 0; K < Count; ++K)
      Shapes.emplace_back(Tasks, K % 3);
  R.shuffle(Shapes);
  // Base loads of 25-35 %, each equally often: a query's cost follows its
  // load, so a fixed make-up keeps the run's work the same on every seed.
  const std::vector<std::uint64_t> Loads =
      evenlyShuffled(R, Shapes.size(), 25, 35);

  std::vector<Query> Qs(Shapes.size());
  for (std::size_t I = 0; I < Shapes.size(); ++I) {
    Query &Q = Qs[I];
    Q.Def = makeTaskSet(R, Shapes[I].first, Shapes[I].second, Loads[I]);
    Q.SimSeed = R.raw();
    CheckResult Diags;
    std::optional<SystemSpec> Sys =
        parseSystemSpec(Q.Def.specText("rta-" + std::to_string(I)), &Diags);
    if (!Sys)
      throw std::runtime_error("generated spec rejected: " +
                               Diags.describe());
    Q.Policy = Sys->Client.Policy;
    for (std::uint64_t Pct : ScalePct) {
      // Scaled sets share the base set's curve objects.
      TaskSet Scaled;
      for (const Task &T : Sys->Client.Tasks.tasks())
        Scaled.addTask(T.Name, T.Wcet * Pct / 100, T.Prio, T.Curve,
                       T.Deadline);
      long double U = 0;
      for (const TaskDef &T : Q.Def.Tasks)
        U += static_cast<long double>(T.Wcet * Pct / 100) /
             static_cast<long double>(T.Curve.Period);
      for (std::uint32_t S = 1; S <= MaxSockets; ++S) {
        SweepPoint P;
        P.Tasks = Scaled;
        P.Sbf.Wcets = Sys->Client.Wcets;
        P.Sbf.NumSockets = S;
        P.Policy = Q.Policy;
        Q.Points.push_back(std::move(P));
        Q.Util.push_back(U);
      }
    }
  }
  return Qs;
}

std::vector<RtaResult> runQuery(const Query &Q, SweepTelemetry *Tel) {
  SweepOptions Opts;
  Opts.Threads = 1;
  SweepRunner Runner(Opts);
  std::vector<RtaResult> Rs = Runner.run(Q.Points);
  if (Tel)
    *Tel = Runner.telemetry();
  return Rs;
}

Duration boundOf(const TaskRta &T) {
  return T.Bounded ? T.ResponseBound : TimeInfinity;
}

bool sameRta(const RtaResult &A, const RtaResult &B) {
  if (A.PerTask.size() != B.PerTask.size())
    return false;
  for (std::size_t I = 0; I < A.PerTask.size(); ++I) {
    const TaskRta &X = A.PerTask[I], &Y = B.PerTask[I];
    if (X.Task != Y.Task || X.Bounded != Y.Bounded ||
        X.ReleaseRelativeBound != Y.ReleaseRelativeBound ||
        X.Jitter != Y.Jitter || X.ResponseBound != Y.ResponseBound ||
        X.BusyWindow != Y.BusyWindow || X.Blocking != Y.Blocking)
      return false;
  }
  return true;
}

/// Totals over the query set, filled by the checked pass.
struct Totals {
  std::uint64_t Points = 0;
  std::uint64_t MonotonePairs = 0;
  std::uint64_t Overloaded = 0;
  std::uint64_t Simulated = 0;
  std::uint64_t SimulatedJobs = 0;
  std::uint64_t Iterations = 0; ///< Fixpoint and supply iterations.
};

/// Simulates \p P with the densest compliant arrivals and every cost at
/// its WCET; every job whose arrival plus R_i + J_i lies before the
/// horizon must complete within that bound.
bool simulateWithinBounds(const Query &Q, const SweepPoint &P,
                          const RtaResult &Res, std::uint64_t &Jobs) {
  double Rate = 0; // Long-run arrivals per ns.
  Duration MaxBound = 0;
  for (std::size_t I = 0; I < Q.Def.Tasks.size(); ++I) {
    Rate += 1.0 / double(Q.Def.Tasks[I].Curve.Period);
    MaxBound = std::max(MaxBound, Res.PerTask[I].ResponseBound);
  }
  // About 400 arrivals, within 20 ms.
  const Duration ArrH =
      std::min<Duration>(20 * TickMs, static_cast<Duration>(400 / Rate));
  const Duration RunH = ArrH + std::min<Duration>(MaxBound, 2 * TickMs) + 1;
  ClientConfig Client;
  Client.Tasks = P.Tasks;
  Client.NumSockets = P.Sbf.NumSockets;
  Client.Wcets = P.Sbf.Wcets;
  Client.Policy = P.Policy;
  WorkloadSpec WS;
  WS.NumSockets = P.Sbf.NumSockets;
  WS.Horizon = ArrH;
  WS.Seed = Q.SimSeed;
  WS.Style = WorkloadStyle::GreedyDense;
  const ArrivalSequence Arr = generateWorkload(Client.Tasks, WS);
  Environment Env(Arr);
  CostModel Costs(Client.Wcets, CostModelKind::AlwaysWcet, Q.SimSeed);
  FdScheduler Sched(Client, Env, Costs);
  CompletionSink Done;
  RunLimits Limits;
  Limits.Horizon = RunH;
  Sched.run(Limits, Done);
  bool Ok = !Done.duplicate();
  for (const Arrival &A : Arr.arrivals()) {
    const Duration B = Res.PerTask[A.Msg.Task].ResponseBound;
    auto It = Done.completedAt().find(A.Msg.Id);
    if (It != Done.completedAt().end())
      Ok &= It->second >= A.At && It->second - A.At <= B;
    else
      Ok &= A.At + B >= RunH; // Only jobs the horizon cuts off may be open.
    ++Jobs;
  }
  return Ok;
}

void check(const Query &Q, const std::vector<RtaResult> &Rs, CheckLog &Log,
           std::size_t I, Totals &Tot) {
  const std::string Op = "rta_sweep query " + std::to_string(I) + ": ";
  const std::size_t N = Q.Def.Tasks.size();
  Log.expect(Rs.size() == Q.Points.size(), I, Op + "one result per point");
  if (Rs.size() != Q.Points.size())
    return;
  Tot.Points += Rs.size();

  // Each sweep result equals a cold analysis of the same point.
  for (std::size_t P = 0; P < Rs.size(); ++P) {
    const SweepPoint &Pt = Q.Points[P];
    const RtaResult Cold = analyzePolicy(Pt.Tasks, Pt.Sbf.Wcets,
                                         Pt.Sbf.NumSockets, Pt.Policy, Pt.Cfg);
    Log.expect(sameRta(Rs[P], Cold), I,
               Op + "point " + std::to_string(P) +
                   " differs from a cold analyzePolicy");
    Log.expect(Rs[P].PerTask.size() == N, I, Op + "one bound per task");
    if (Q.Util[P] > 1.0L) {
      ++Tot.Overloaded;
      Log.expect(!Rs[P].allBounded(), I,
                 Op + "point " + std::to_string(P) +
                     " has sum C_i/T_i > 1 but is reported all-bounded");
    }
  }

  // Bounds are monotone in the socket count and in the WCET scaling.
  auto At = [&](std::size_t K, std::uint32_t S, std::size_t T) {
    return boundOf(Rs[K * MaxSockets + (S - 1)].PerTask[T]);
  };
  for (std::size_t K = 0; K < NumScales; ++K)
    for (std::uint32_t S = 1; S <= MaxSockets; ++S)
      for (std::size_t T = 0; T < N; ++T) {
        if (S < MaxSockets) {
          ++Tot.MonotonePairs;
          Log.expect(At(K, S, T) <= At(K, S + 1, T), I,
                     Op + "bound shrinks with more sockets");
        }
        if (K + 1 < NumScales) {
          ++Tot.MonotonePairs;
          Log.expect(At(K, S, T) <= At(K + 1, S, T), I,
                     Op + "bound shrinks with larger WCETs");
        }
      }

  // One seeded all-bounded NPFP point, simulated.
  if (Q.Policy != SchedPolicy::Npfp)
    return;
  std::vector<std::size_t> Bounded;
  for (std::size_t P = 0; P < Rs.size(); ++P)
    if (Rs[P].allBounded())
      Bounded.push_back(P);
  if (Bounded.empty())
    return;
  const std::size_t P = Bounded[Q.SimSeed % Bounded.size()];
  ++Tot.Simulated;
  Log.expect(simulateWithinBounds(Q, Q.Points[P], Rs[P], Tot.SimulatedJobs),
             I,
             Op + "a simulated job of point " + std::to_string(P) +
                 " exceeded its bound");
}

std::uint64_t digest(const std::vector<RtaResult> &Rs) {
  std::uint64_t H = Rs.size();
  for (const RtaResult &R : Rs)
    for (const TaskRta &T : R.PerTask)
      H = mix(H, boundOf(T));
  return H;
}

std::vector<Operation> makeOps(const std::vector<Query> &Qs, Totals &Tot) {
  std::vector<Operation> Ops;
  for (std::size_t I = 0; I < Qs.size(); ++I)
    Ops.push_back({"rta_sweep-" + std::to_string(I),
                   [&Qs, &Tot](CheckLog *Log, std::size_t K) {
                     SweepTelemetry Tel;
                     std::vector<RtaResult> Rs =
                         runQuery(Qs[K], Log ? &Tel : nullptr);
                     if (Log) {
                       Tot.Iterations += Tel.Fixpoints.Iterations +
                                         Tel.Fixpoints.SupplyIterations;
                       check(Qs[K], Rs, *Log, K, Tot);
                     }
                     return digest(Rs);
                   }});
  return Ops;
}

std::string totalsNote(const std::vector<Query> &Qs, const Totals &T) {
  return "rta_sweep: " + std::to_string(Qs.size()) + " queries, " +
         std::to_string(T.Points) + " points, " +
         std::to_string(T.MonotonePairs) + " monotonicity pairs, " +
         std::to_string(T.Overloaded) + " overloaded points, " +
         std::to_string(T.Simulated) + " points simulated (" +
         std::to_string(T.SimulatedJobs) + " jobs), " +
         std::to_string(T.Iterations) + " fixpoint iterations";
}

} // namespace

WorkloadResult runRtaSweep(const RunOptions &O) {
  std::vector<Query> Qs = buildQueries(O.Seed);
  Totals Tot;
  return timeWorkload(O, makeOps(Qs, Tot),
                      [&] { return totalsNote(Qs, Tot); });
}

void traceRtaSweep(const RunOptions &O, TraceContext &C) {
  std::vector<Query> Qs = buildQueries(O.Seed);
  Totals Tot;
  std::vector<Operation> Ops = makeOps(Qs, Tot);
  checkedPass(Ops, C);

  LayerTimes L;
  Tracer &S = C.Spans;
  std::vector<FixpointCounts> Counts(Qs.size());
  tracedPasses(C, Ops, L, [&](std::size_t I, std::uint32_t Op) {
    const Query &Q = Qs[I];
    ScopedSpan OpSpan(S, "rta_sweep.op", Op);
    {
      ScopedSpan Sp(S, "rta.SweepRunner.run", Op);
      SweepTelemetry Tel;
      runQuery(Q, &Tel);
      const double Sec = Sp.stop();
      L.note("traced", I, Sec);
      L.note("rta.query.tasks" + std::to_string(Q.Def.Tasks.size()), I, Sec);
      Counts[I] = Tel.Fixpoints;
    }
    {
      ScopedSpan Sp(S, "rta.analyzePolicy.cold", Op);
      for (const SweepPoint &P : Q.Points)
        analyzePolicy(P.Tasks, P.Sbf.Wcets, P.Sbf.NumSockets, P.Policy,
                      P.Cfg);
      L.note("rta.point_cold", I, Sp.stop());
    }
    {
      ScopedSpan Sp(S, "core.FlatCurveTable", Op);
      for (const Task &T : Q.Points.front().Tasks.tasks())
        FlatCurveTable Table(T.Curve);
      L.note("core.curve_compile", I, Sp.stop());
    }
  });

  std::vector<Metric> &M = C.Metrics;
  FixpointCounts Sum;
  double Points = 0, Curves = 0;
  for (std::size_t I = 0; I < Qs.size(); ++I) {
    Sum += Counts[I];
    Points += double(Qs[I].Points.size());
    Curves += double(Qs[I].Def.Tasks.size());
  }
  const double NQ = double(Qs.size());
  for (const auto &[Tasks, Count] : Makeup) {
    const std::string Layer = "rta.query.tasks" + std::to_string(Tasks);
    M.push_back({"rta.query_ms.tasks" + std::to_string(Tasks),
                 L.sumBest(Layer) * 1e3 / double(Count), "ms"});
  }
  M.push_back({"rta.fixpoints", double(Sum.Fixpoints) / NQ, "count"});
  M.push_back({"rta.iterations", double(Sum.Iterations) / NQ, "count"});
  M.push_back({"rta.supply_iterations", double(Sum.SupplyIterations) / NQ,
               "count"});
  M.push_back({"rta.seeded", double(Sum.Seeded) / NQ, "count"});
  M.push_back({"rta.point_cold_ms", L.sumBest("rta.point_cold") * 1e3 / Points,
               "ms"});
  M.push_back({"core.curve_compile_us",
               L.sumBest("core.curve_compile") * 1e6 / Curves, "us"});
  C.Notes.push_back(totalsNote(Qs, Tot));
  noteOverhead(C, "rta_sweep", L);
}

} // namespace perfbench

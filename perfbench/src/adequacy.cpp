//===- perfbench/src/adequacy.cpp - The adequacy workload ------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One operation is one runAdequacyStreaming call on a seeded system:
/// the simulator, the five trace checkers, ScheduleBuilder and
/// StreamingValidity do nearly all the work, RTA runs once, and no trace
/// is written or parsed. Set-up parses each system's spec text and
/// generates its arrival sequence.
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "adequacy/pipeline.h"
#include "adequacy/spec_parser.h"
#include "convert/schedule_builder.h"
#include "convert/validity_stream.h"
#include "rossl/scheduler.h"
#include "rta/rta_policies.h"
#include "sim/environment.h"
#include "sim/workload.h"
#include "trace/check_sinks.h"

#include <stdexcept>

using namespace rprosa;

namespace perfbench {

std::vector<SystemDef> makeAdequacySystems(Rng &R, std::size_t Count) {
  static const char *const Policies[] = {"npfp", "edf", "fifo"};
  const std::vector<std::uint64_t> Tasks = evenlyShuffled(R, Count, 3, 8);
  const std::vector<std::uint64_t> Loads = evenlyShuffled(R, Count, 30, 60);
  std::vector<SystemDef> Defs;
  for (std::size_t I = 0; I < Count; ++I) {
    SystemShape Shape;
    Shape.Policy = Policies[I % 3];
    Shape.Sockets = static_cast<std::uint32_t>(1 + (I / 27) % 4);
    Shape.Tasks = Tasks[I];
    Shape.LoadPct = Loads[I];
    Defs.push_back(makeSystem(R, Shape));
  }
  return Defs;
}

namespace {

constexpr std::size_t NumOps = 108;
constexpr Duration ArrivalHorizon = 3 * TickMs;
constexpr Duration RunHorizon = 4 * TickMs;

struct Input {
  SystemDef Def;
  WorkloadSpec Workload;
  AdequacySpec Spec;
};

/// Set-up: parse each system's spec and generate its arrivals.
std::vector<Input> buildInputs(std::uint64_t Seed) {
  static const CostModelKind Costs[] = {CostModelKind::Uniform,
                                        CostModelKind::AlwaysWcet,
                                        CostModelKind::HalfWcet};
  static const WorkloadStyle Styles[] = {WorkloadStyle::GreedyDense,
                                         WorkloadStyle::Random,
                                         WorkloadStyle::Sparse};
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 1);
  std::vector<SystemDef> Defs = makeAdequacySystems(R, NumOps);
  std::vector<Input> In(NumOps);
  for (std::size_t I = 0; I < NumOps; ++I) {
    Input &X = In[I];
    X.Def = std::move(Defs[I]);
    CheckResult Diags;
    std::optional<SystemSpec> Sys =
        parseSystemSpec(X.Def.specText("adequacy-" + std::to_string(I)),
                        &Diags);
    if (!Sys)
      throw std::runtime_error("generated spec rejected: " +
                               Diags.describe());
    X.Spec.Client = Sys->Client;
    X.Workload.NumSockets = X.Def.Sockets;
    X.Workload.Horizon = ArrivalHorizon;
    X.Workload.Seed = R.raw();
    X.Workload.Style = Styles[(I / 3) % 3];
    X.Spec.Arr = generateWorkload(X.Spec.Client.Tasks, X.Workload);
    X.Spec.Cost = Costs[(I / 9) % 3];
    X.Spec.Seed = R.raw();
    X.Spec.Limits.Horizon = RunHorizon;
  }
  return In;
}

/// Totals over the operation set, filled by the checked pass.
struct Totals {
  std::uint64_t Markers = 0;
  std::uint64_t Arrivals = 0;
  std::uint64_t Jobs = 0;
  std::uint64_t InHorizon = 0;
  std::uint64_t BoundedTasks = 0;
  std::uint64_t Tasks = 0;
};

std::uint64_t digest(const AdequacyReport &Rep) {
  std::uint64_t H = mix(mix(Rep.Markers, Rep.NumJobs), Rep.Horizon);
  for (const JobVerdict &V : Rep.Jobs)
    H = mix(H, V.Completed ? V.CompletedAt : 1);
  return mix(H, Rep.theoremHolds());
}

void check(const Input &X, const AdequacyReport &Rep, CheckLog &Log,
           std::size_t I, Totals &Tot) {
  const std::string Op = "adequacy op " + std::to_string(I) + ": ";
  Log.expect(Rep.assumptionsHold() && Rep.invariantsHold(), I,
             Op + "a trace or schedule check rejected the run:\n" +
                 Rep.summary());

  // The arrival sequence against the curve definitions, counted here.
  const std::vector<Arrival> &Arr = X.Spec.Arr.arrivals();
  std::vector<std::vector<Time>> PerTask(X.Def.Tasks.size());
  for (const Arrival &A : Arr)
    if (A.Msg.Task < PerTask.size())
      PerTask[A.Msg.Task].push_back(A.At);
  for (std::size_t T = 0; T < PerTask.size(); ++T)
    Log.expect(respectsCurve(PerTask[T], X.Def.Tasks[T].Curve), I,
               Op + "arrivals of task " + std::to_string(T) +
                   " exceed its curve");

  // Thm. 5.1 recomputed from the report: every job whose arrival plus
  // R_i + J_i lies before the horizon completed within that bound.
  Log.expect(Rep.Jobs.size() == Arr.size(), I,
             Op + "one verdict per arrival expected");
  std::uint64_t Completed = 0;
  for (std::size_t K = 0; K < Rep.Jobs.size() && K < Arr.size(); ++K) {
    const JobVerdict &V = Rep.Jobs[K];
    Completed += V.Completed;
    if (V.Msg != Arr[K].Msg.Id || V.ArrivalAt != Arr[K].At) {
      Log.expect(false, I, Op + "verdict " + std::to_string(K) +
                               " does not match its arrival");
      continue;
    }
    const TaskRta &B = Rep.Rta.forTask(V.Task);
    const bool Within = B.Bounded && B.ResponseBound != TimeInfinity &&
                        V.ArrivalAt + B.ResponseBound < Rep.Horizon;
    Log.expect(Within == V.WithinHorizon, I,
               Op + "in-horizon flag of job " + std::to_string(K));
    if (!Within)
      continue;
    ++Tot.InHorizon;
    Log.expect(V.Completed && V.CompletedAt >= V.ArrivalAt &&
                   V.CompletedAt - V.ArrivalAt <= B.ResponseBound,
               I,
               Op + "job " + std::to_string(K) + " missed R_i + J_i = " +
                   std::to_string(B.ResponseBound));
  }
  for (const TaskRta &T : Rep.Rta.PerTask)
    Tot.BoundedTasks += T.Bounded;
  Tot.Tasks += X.Def.Tasks.size();

  // A separate simulator run into the benchmark's own sink.
  Environment Env(X.Spec.Arr);
  CostModel Costs(X.Spec.Client.Wcets, X.Spec.Cost, X.Spec.Seed);
  FdScheduler Sched(X.Spec.Client, Env, Costs);
  HashSink H;
  Sched.run(X.Spec.Limits, H);
  Log.expect(H.completions() == Completed && H.markers() == Rep.Markers, I,
             Op + "completion or marker count differs from a separate run");

  Tot.Markers += Rep.Markers;
  Tot.Arrivals += Arr.size();
  Tot.Jobs += Rep.NumJobs;
}

std::vector<Operation> makeOps(const std::vector<Input> &In, Totals &Tot) {
  std::vector<Operation> Ops;
  for (std::size_t I = 0; I < In.size(); ++I)
    Ops.push_back({"adequacy-" + std::to_string(I),
                   [&In, &Tot](CheckLog *Log, std::size_t K) {
                     AdequacyReport Rep = runAdequacyStreaming(In[K].Spec);
                     if (Log)
                       check(In[K], Rep, *Log, K, Tot);
                     return digest(Rep);
                   }});
  return Ops;
}

/// Records the schedule events of one conversion, to feed them to a
/// consumer again on its own.
class EventLog final : public ScheduleEventConsumer {
public:
  void onScheduleStart(Time At) override {
    Evs.push_back({K::Start, At, {}, {}, 0});
  }
  void onSegment(const ScheduleSegment &Seg) override {
    Evs.push_back({K::Segment, 0, Seg, {}, 0});
  }
  void onJobAdmitted(const ConvertedJob &CJ, std::size_t Index) override {
    Evs.push_back({K::Admitted, 0, {}, CJ, Index});
  }
  void onJobSelected(const ConvertedJob &CJ, std::size_t Index) override {
    Evs.push_back({K::Selected, 0, {}, CJ, Index});
  }
  void onJobDispatched(const ConvertedJob &CJ, std::size_t Index) override {
    Evs.push_back({K::Dispatched, 0, {}, CJ, Index});
  }
  void onJobRetired(const ConvertedJob &CJ, std::size_t Index) override {
    Evs.push_back({K::Retired, 0, {}, CJ, Index});
  }
  void onScheduleEnd(
      const std::vector<std::pair<std::size_t, ConvertedJob>> &O) override {
    Open = O;
    Ended = true;
  }

  void replay(ScheduleEventConsumer &C) const {
    for (const Ev &E : Evs) {
      switch (E.Kind) {
      case K::Start:
        C.onScheduleStart(E.At);
        break;
      case K::Segment:
        C.onSegment(E.Seg);
        break;
      case K::Admitted:
        C.onJobAdmitted(E.CJ, E.Index);
        break;
      case K::Selected:
        C.onJobSelected(E.CJ, E.Index);
        break;
      case K::Dispatched:
        C.onJobDispatched(E.CJ, E.Index);
        break;
      case K::Retired:
        C.onJobRetired(E.CJ, E.Index);
        break;
      }
    }
    if (Ended)
      C.onScheduleEnd(Open);
  }

private:
  enum class K : std::uint8_t {
    Start,
    Segment,
    Admitted,
    Selected,
    Dispatched,
    Retired
  };
  struct Ev {
    K Kind;
    Time At;
    ScheduleSegment Seg;
    ConvertedJob CJ;
    std::size_t Index;
  };
  std::vector<Ev> Evs;
  std::vector<std::pair<std::size_t, ConvertedJob>> Open;
  bool Ended = false;
};

std::string totalsNote(const Totals &T) {
  return "adequacy: " + std::to_string(NumOps) + " systems, " +
         std::to_string(T.Markers) + " markers, " +
         std::to_string(T.Arrivals) + " arrivals, " +
         std::to_string(T.InHorizon) + " in-horizon jobs checked against " +
         "R_i + J_i, " + std::to_string(T.BoundedTasks) + "/" +
         std::to_string(T.Tasks) + " tasks bounded";
}

} // namespace

WorkloadResult runAdequacy(const RunOptions &O) {
  std::vector<Input> In = buildInputs(O.Seed);
  Totals Tot;
  return timeWorkload(O, makeOps(In, Tot), [&] { return totalsNote(Tot); });
}

void traceAdequacy(const RunOptions &O, TraceContext &C) {
  std::vector<Input> In = buildInputs(O.Seed);
  Totals Tot;
  std::vector<Operation> Ops = makeOps(In, Tot);
  checkedPass(Ops, C);

  LayerTimes L;
  Tracer &S = C.Spans;
  tracedPasses(C, Ops, L, [&](std::size_t I, std::uint32_t Op) {
    const Input &X = In[I];
    const ClientConfig &Cl = X.Spec.Client;
    ScopedSpan OpSpan(S, "adequacy.op", Op);
    {
      ScopedSpan Sp(S, "adequacy.runAdequacyStreaming", Op);
      runAdequacyStreaming(X.Spec);
      L.note("traced", I, Sp.stop());
    }
    {
      ScopedSpan Sp(S, "sim.generateWorkload", Op);
      generateWorkload(Cl.Tasks, X.Workload);
      L.note("sim.generate", I, Sp.stop());
    }
    {
      ScopedSpan Sp(S, "sim.run", Op);
      Environment Env(X.Spec.Arr);
      CostModel Costs(Cl.Wcets, X.Spec.Cost, X.Spec.Seed);
      FdScheduler Sched(Cl, Env, Costs);
      CountSink Count;
      Sched.run(X.Spec.Limits, Count);
      L.note("sim.run", I, Sp.stop());
    }
    TimedTrace TT;
    {
      ScopedSpan Sp(S, "bench.materialize", Op);
      Environment Env(X.Spec.Arr);
      CostModel Costs(Cl.Wcets, X.Spec.Cost, X.Spec.Seed);
      FdScheduler Sched(Cl, Env, Costs);
      VectorSink V;
      Sched.run(X.Spec.Limits, V);
      TT = V.take();
    }
    auto Checker = [&](const char *Span, const char *Layer, TraceSink &K) {
      ScopedSpan Sp(S, Span, Op);
      replayTimedTrace(TT, K);
      L.note(Layer, I, Sp.stop());
    };
    {
      TimestampCheckSink K;
      Checker("trace.TimestampCheckSink", "trace.timestamps", K);
    }
    {
      ProtocolCheckSink K(Cl.NumSockets);
      Checker("trace.ProtocolCheckSink", "trace.protocol", K);
    }
    {
      FunctionalCheckSink K(Cl.Tasks, Cl.Policy);
      Checker("trace.FunctionalCheckSink", "trace.functional", K);
    }
    {
      ConsistencyCheckSink K(X.Spec.Arr);
      Checker("trace.ConsistencyCheckSink", "trace.consistency", K);
    }
    {
      WcetCheckSink K(Cl.Tasks, Cl.Wcets);
      Checker("trace.WcetCheckSink", "trace.wcet", K);
    }
    {
      ScheduleCapture Cap;
      ScheduleBuilder B(Cl.NumSockets, Cap);
      Checker("convert.ScheduleBuilder", "convert.builder", B);
    }
    EventLog Events;
    {
      ScopedSpan Sp(S, "bench.record_events", Op);
      ScheduleBuilder B(Cl.NumSockets, Events);
      replayTimedTrace(TT, B);
    }
    {
      ScopedSpan Sp(S, "convert.StreamingValidity", Op);
      StreamingValidity V(Cl.Tasks, X.Spec.Arr, Cl.Wcets, Cl.NumSockets,
                          Cl.Policy);
      Events.replay(V);
      L.note("convert.validity", I, Sp.stop());
    }
    {
      ScopedSpan Sp(S, "rta.analyzePolicy", Op);
      analyzePolicy(Cl.Tasks, Cl.Wcets, Cl.NumSockets, Cl.Policy,
                    X.Spec.Rta);
      L.note("rta.analyze", I, Sp.stop());
    }
  });

  const double N = double(In.size());
  const double Markers = double(Tot.Markers);
  auto NsPerMarker = [&](const char *Layer) {
    return L.sumBest(Layer) * 1e9 / Markers;
  };
  double Layers = 0;
  for (const char *Layer :
       {"sim.run", "trace.timestamps", "trace.protocol", "trace.functional",
        "trace.consistency", "trace.wcet", "convert.builder",
        "convert.validity", "rta.analyze"})
    Layers += L.sumBest(Layer);
  std::vector<Metric> &M = C.Metrics;
  M.push_back({"sim.run_ns_per_marker", NsPerMarker("sim.run"), "ns/marker"});
  M.push_back({"sim.workload_gen_ms", L.sumBest("sim.generate") * 1e3 / N,
               "ms"});
  M.push_back({"sim.arrivals_per_op", double(Tot.Arrivals) / N, "count"});
  for (const char *Layer : {"timestamps", "protocol", "functional",
                            "consistency", "wcet"})
    M.push_back({std::string("trace.") + Layer + "_ns_per_marker",
                 NsPerMarker((std::string("trace.") + Layer).c_str()),
                 "ns/marker"});
  M.push_back({"convert.builder_ns_per_marker",
               NsPerMarker("convert.builder"), "ns/marker"});
  M.push_back({"convert.validity_ns_per_marker",
               NsPerMarker("convert.validity"), "ns/marker"});
  M.push_back({"rta.adequacy_analyze_us", L.sumBest("rta.analyze") * 1e6 / N,
               "us"});
  M.push_back({"adequacy.fanout_ns_per_marker",
               (L.sumBest("traced") - Layers) * 1e9 / Markers, "ns/marker"});
  M.push_back({"trace.markers_per_op", Markers / N, "count"});
  M.push_back({"convert.jobs_per_op", double(Tot.Jobs) / N, "count"});
  C.Notes.push_back(totalsNote(Tot));
  noteOverhead(C, "adequacy", L);
}

} // namespace perfbench

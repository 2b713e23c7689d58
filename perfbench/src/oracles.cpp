//===- perfbench/src/oracles.cpp -------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "oracles.h"

using namespace rprosa;

namespace perfbench {

std::uint64_t CurveDef::eval(Duration Delta) const {
  if (Delta == 0)
    return 0;
  switch (K) {
  case Kind::Periodic: // ceil(Delta / T)
    return (Delta + Period - 1) / Period;
  case Kind::PeriodicJitter: // ceil((Delta + J) / T)
    return (Delta + Jitter + Period - 1) / Period;
  case Kind::Bucket: // b + floor(Delta / r)
    return Burst + Delta / Period;
  }
  return 0;
}

std::string CurveDef::specText() const {
  switch (K) {
  case Kind::Periodic:
    return "periodic " + std::to_string(Period);
  case Kind::PeriodicJitter:
    return "periodic-jitter " + std::to_string(Period) + " " +
           std::to_string(Jitter);
  case Kind::Bucket:
    return "bucket " + std::to_string(Burst) + " " + std::to_string(Period);
  }
  return "";
}

std::string SystemDef::specText(const std::string &Name) const {
  std::string S = "system " + Name + "\n";
  S += "sockets " + std::to_string(Sockets) + "\n";
  S += "policy " + Policy + "\n";
  S += "wcets fr " + std::to_string(Fr) + " sr " + std::to_string(Sr) +
       " sel " + std::to_string(Sel) + " disp " + std::to_string(Disp) +
       " compl " + std::to_string(Compl) + " idle " + std::to_string(Idle) +
       "\n";
  for (std::size_t I = 0; I < Tasks.size(); ++I) {
    const TaskDef &T = Tasks[I];
    S += "task t" + std::to_string(I) + " wcet " + std::to_string(T.Wcet) +
         " prio " + std::to_string(T.Prio);
    if (T.Deadline)
      S += " deadline " + std::to_string(T.Deadline);
    S += " curve " + T.Curve.specText() + "\n";
  }
  return S;
}

SystemDef makeSystem(Rng &R, const SystemShape &Shape) {
  SystemDef S;
  S.Policy = Shape.Policy;
  S.Sockets = Shape.Sockets;
  S.Fr = R.range(150, 400);
  S.Sr = S.Fr + R.range(150, 500); // a successful read includes a poll
  S.Sel = R.range(100, 300);
  S.Disp = R.range(100, 250);
  S.Compl = R.range(100, 350);
  S.Idle = R.range(300, 1000);
  const std::size_t N = Shape.Tasks;
  // Load per job = callback + the scheduler overheads the analysis
  // charges to one job: one successful read, two all-failed polling
  // rounds (one within the read, one before selection: RB + PB in
  // rta/bounds.h), selection, dispatch and completion. The periods give
  // the system its total load. Leaving the polling rounds out put
  // multi-socket systems near a load of 1, where one RTA busy window
  // reached 1 s and its operation took 185 ms against about 3 ms.
  const Duration PerJobOverhead =
      S.Sr + 2 * Shape.Sockets * S.Fr + S.Sel + S.Disp + S.Compl;
  const std::uint64_t LoadPct = Shape.LoadPct;
  std::vector<std::uint32_t> Prios(N);
  for (std::size_t I = 0; I < N; ++I)
    Prios[I] = static_cast<std::uint32_t>(I + 1);
  R.shuffle(Prios);
  for (std::size_t I = 0; I < N; ++I) {
    TaskDef T;
    T.Wcet = R.range(Shape.WcetLo, Shape.WcetHi);
    T.Prio = Prios[I];
    const Duration Step = Shape.PeriodStep;
    const Duration Period =
        (N * (T.Wcet + PerJobOverhead) * 100 / LoadPct / Step + 1) * Step;
    T.Curve.Period = Period;
    switch (R.range(0, 2)) {
    case 0:
      T.Curve.K = CurveDef::Kind::Periodic;
      break;
    case 1:
      T.Curve.K = CurveDef::Kind::PeriodicJitter;
      T.Curve.Jitter = R.range(0, Period / 2);
      break;
    default:
      T.Curve.K = CurveDef::Kind::Bucket;
      T.Curve.Burst = R.range(Shape.BurstLo, Shape.BurstHi);
      break;
    }
    if (S.Policy == "edf")
      T.Deadline = Period * R.range(1, 3);
    S.Tasks.push_back(T);
  }
  return S;
}

std::vector<std::uint64_t> evenlyShuffled(Rng &R, std::size_t Count,
                                          std::uint64_t Lo, std::uint64_t Hi) {
  std::vector<std::uint64_t> V(Count);
  for (std::size_t I = 0; I < Count; ++I)
    V[I] = Lo + (Hi - Lo + 1) * I / Count;
  R.shuffle(V);
  return V;
}

bool respectsCurve(const std::vector<Time> &Times, const CurveDef &C) {
  for (std::size_t I = 0; I < Times.size(); ++I)
    for (std::size_t J = I; J < Times.size(); ++J)
      if (J - I + 1 > C.eval(Times[J] - Times[I] + 1))
        return false;
  return true;
}

void HashSink::onMarker(const MarkerEvent &E, Time At) {
  ++Markers;
  if (E.Kind == MarkerKind::Completion)
    ++Completions;
  H = mix(H, At);
  H = mix(H, static_cast<std::uint64_t>(E.Kind));
  if (E.Kind == MarkerKind::ReadE)
    H = mix(H, E.Socket);
  if (E.J) {
    H = mix(H, E.J->Id);
    H = mix(H, E.J->Msg);
    H = mix(H, E.J->Task);
    H = mix(H, E.J->ReadAt);
    if (E.Kind != MarkerKind::ReadE)
      H = mix(H, E.J->Socket);
  }
}

void HashSink::onEnd(Time EndTime) { H = mix(H, EndTime); }

void CompletionSink::onMarker(const MarkerEvent &E, Time At) {
  if (E.Kind == MarkerKind::Completion && E.J)
    Duplicate |= !CompletedAt.emplace(E.J->Msg, At).second;
}

} // namespace perfbench

//===- sim/workload.cpp ---------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "sim/workload.h"

#include "support/rng.h"

#include <cassert>

using namespace rprosa;

namespace {

/// Generates compliant arrival times for one task.
class TaskArrivalBuilder {
public:
  TaskArrivalBuilder(const Task &T, SplitMix64 Rng)
      : Rng(Rng), Rule(*T.Curve),
        // The minimum steady-state gap: how far apart two consecutive
        // arrivals must at least be once a long prefix exists. Derived
        // from the window needed for 2 arrivals.
        MinGap(Rule.minWindow(2)) {}

  /// The earliest compliant time >= Proposed for the next arrival,
  /// given all previous arrival times (core's shared push rule).
  Time earliestCompliantAt(Time Proposed) {
    return Rule.earliest(Times, Proposed);
  }

  void commit(Time T_) { Times.push_back(T_); }
  const std::vector<Time> &times() const { return Times; }

  /// A randomized next proposal after the last arrival.
  Time proposeRandom(std::uint64_t GapScaleNum, std::uint64_t GapScaleDen) {
    Duration Base = MinGap == TimeInfinity ? 1 : MinGap;
    Duration MeanGap = satMul(Base, GapScaleNum) / GapScaleDen + 1;
    Duration Gap = Rng.nextInRange(0, satMul(MeanGap, 2));
    Time Last = Times.empty() ? 0 : Times.back();
    return satAdd(Last, Gap);
  }

private:
  SplitMix64 Rng;
  CompliantArrivals Rule;
  Duration MinGap;
  std::vector<Time> Times;
};

} // namespace

ArrivalSequence rprosa::generateWorkload(
    const TaskSet &Tasks, const std::vector<SocketId> &TaskSocket,
    const WorkloadSpec &Spec) {
  assert(TaskSocket.size() == Tasks.size() && "one socket per task");
  ArrivalSequence Arr(Spec.NumSockets);
  SplitMix64 Root(Spec.Seed);

  for (const Task &T : Tasks.tasks()) {
    assert(TaskSocket[T.Id] < Spec.NumSockets && "socket out of range");
    TaskArrivalBuilder B(T, Root.fork());
    std::uint64_t Limit = Spec.MaxArrivalsPerTask;
    while (Limit == 0 || B.times().size() < Limit) {
      Time Proposed = 0;
      switch (Spec.Style) {
      case WorkloadStyle::GreedyDense:
        // As early as the curve allows (starting from the last arrival
        // time; simultaneous arrivals happen when the curve is bursty).
        Proposed = B.times().empty() ? 0 : B.times().back();
        break;
      case WorkloadStyle::Random:
        Proposed = B.proposeRandom(1, 1);
        break;
      case WorkloadStyle::Sparse:
        Proposed = B.proposeRandom(3, 1);
        break;
      }
      Time At = B.earliestCompliantAt(Proposed);
      if (At == TimeInfinity || At >= Spec.Horizon)
        break;
      B.commit(At);
      Arr.addArrival(At, TaskSocket[T.Id], T.Id);
    }
  }
  return Arr;
}

ArrivalSequence rprosa::generateWorkload(const TaskSet &Tasks,
                                         const WorkloadSpec &Spec) {
  std::vector<SocketId> TaskSocket(Tasks.size());
  for (std::size_t I = 0; I < TaskSocket.size(); ++I)
    TaskSocket[I] = static_cast<SocketId>(I % Spec.NumSockets);
  return generateWorkload(Tasks, TaskSocket, Spec);
}

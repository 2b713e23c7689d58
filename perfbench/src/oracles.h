//===- perfbench/src/oracles.h - Checks made apart from the library --------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The random systems the workloads are built from, and the
/// computations the benchmark checks the library's outputs against.
/// None of them calls the code under test: curves are evaluated from
/// their textbook definitions, arrival sequences are counted with a
/// sliding window, and trace sinks only count and hash what they see.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ORACLES_H
#define PERFBENCH_ORACLES_H

#include "harness.h"

#include "core/time.h"
#include "trace/stream.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// An arrival curve as the benchmark generated it.
struct CurveDef {
  enum class Kind : std::uint8_t { Periodic, PeriodicJitter, Bucket };
  Kind K = Kind::Periodic;
  rprosa::Duration Period = 1; ///< Period, or the bucket's refill interval.
  rprosa::Duration Jitter = 0; ///< PeriodicJitter only.
  std::uint64_t Burst = 1;     ///< Bucket only.

  /// Most arrivals in any window of length Delta.
  std::uint64_t eval(rprosa::Duration Delta) const;
  /// The spec-file text of the curve ("periodic 40000", ...).
  std::string specText() const;
};

/// A task as the benchmark generated it.
struct TaskDef {
  rprosa::Duration Wcet = 1;
  std::uint32_t Prio = 1;
  rprosa::Duration Deadline = 0; ///< 0 = none given.
  CurveDef Curve;
};

/// A generated system: its tasks and the spec text that describes it.
struct SystemDef {
  std::string Policy = "npfp";
  std::uint32_t Sockets = 1;
  rprosa::Duration Fr = 0, Sr = 0, Sel = 0, Disp = 0, Compl = 0, Idle = 0;
  std::vector<TaskDef> Tasks;
  /// The system in the spec format read by parseSystemSpec.
  std::string specText(const std::string &Name) const;
};

/// What the random systems of one workload have in common; the rest is
/// drawn by makeSystem.
struct SystemShape {
  std::string Policy = "npfp";
  std::uint32_t Sockets = 1;
  std::size_t Tasks = 3;
  /// Total load in percent, the scheduler overheads the analysis
  /// charges to each job included.
  std::uint64_t LoadPct = 30;
  rprosa::Duration WcetLo = 300, WcetHi = 3000;
  std::uint64_t BurstLo = 2, BurstHi = 3; ///< Of bucket curves.
  /// Periods are rounded up to a multiple of this.
  rprosa::Duration PeriodStep = 10;
};

/// A random system of \p Shape: scheduler WCETs, shuffled priorities,
/// periodic, periodic-jitter and bucket curves, and deadlines under EDF.
SystemDef makeSystem(Rng &R, const SystemShape &Shape);

/// \p Count values spread evenly over [Lo, Hi], each value equally often
/// where \p Count allows, in a seeded order: a set that takes one value
/// from it per member has the same make-up on every seed.
std::vector<std::uint64_t> evenlyShuffled(Rng &R, std::size_t Count,
                                          std::uint64_t Lo, std::uint64_t Hi);

/// Whether the sorted arrival instants \p Times respect \p C: every
/// window [t_i, t_j] holds at most C.eval(t_j - t_i + 1) arrivals.
bool respectsCurve(const std::vector<rprosa::Time> &Times, const CurveDef &C);

/// Counts markers and completion markers and hashes the (timestamp,
/// marker) sequence; the same on the writing and the reading side.
class HashSink final : public rprosa::TraceSink {
public:
  void onMarker(const rprosa::MarkerEvent &E, rprosa::Time At) override;
  void onEnd(rprosa::Time EndTime) override;
  std::uint64_t markers() const { return Markers; }
  std::uint64_t completions() const { return Completions; }
  std::uint64_t hash() const { return H; }

private:
  std::uint64_t Markers = 0;
  std::uint64_t Completions = 0;
  std::uint64_t H = 1469598103934665603ull;
};

/// Counts markers only: the cheapest sink, for timing a trace source.
class CountSink final : public rprosa::TraceSink {
public:
  void onMarker(const rprosa::MarkerEvent &E, rprosa::Time At) override {
    (void)E;
    (void)At;
    ++Markers;
  }
  void onEnd(rprosa::Time EndTime) override { (void)EndTime; }
  std::uint64_t markers() const { return Markers; }

private:
  std::uint64_t Markers = 0;
};

/// The completion instant of every job, by message id.
class CompletionSink final : public rprosa::TraceSink {
public:
  void onMarker(const rprosa::MarkerEvent &E, rprosa::Time At) override;
  void onEnd(rprosa::Time EndTime) override { (void)EndTime; }
  const std::map<std::uint64_t, rprosa::Time> &completedAt() const {
    return CompletedAt;
  }
  /// A message completed twice.
  bool duplicate() const { return Duplicate; }

private:
  std::map<std::uint64_t, rprosa::Time> CompletedAt;
  bool Duplicate = false;
};

} // namespace perfbench

#endif // PERFBENCH_ORACLES_H

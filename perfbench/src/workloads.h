//===- perfbench/src/workloads.h - The four workloads ----------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload has two entry points:
///
///  - run*: the untraced run. Builds the inputs from the seed (the
///    program calls among them are the timed set-up), checks every
///    output once and times the operations (harness.h).
///  - trace*: one share of the traced run. Calls each layer's public
///    entry point on the same inputs, inside spans, and adds the
///    per-layer metrics of that workload's layers.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "harness.h"
#include "oracles.h"

#include <string>
#include <vector>

namespace perfbench {

/// What a traced workload adds to: the shared span recorder, the
/// per-layer metrics, and the notes printed with them.
struct TraceContext {
  Tracer &Spans;
  std::vector<Metric> &Metrics;
  std::vector<std::string> &Notes;
  /// Operation ids are unique across the workloads of one traced run.
  std::uint32_t NextOp = 0;
  /// Time each workload's traced passes may take.
  double Seconds = 2;
  /// The traced run checks outputs too (one checked pass per workload).
  CheckLog Log;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
};

/// The checked pass of a traced workload: runs every operation once
/// with checks, counting into \p C.
void checkedPass(const std::vector<Operation> &Ops, TraceContext &C);

/// Round-robin traced passes over \p Ops (roundRobin) for C.Seconds.
/// Each step runs operation I untraced (timed into
/// layer "untraced" of \p L) and calls \p Traced with I and a fresh
/// operation id for its spans; the two swap order every pass, so
/// neither always finds the caches warmed by the other.
void tracedPasses(
    TraceContext &C, const std::vector<Operation> &Ops, LayerTimes &L,
    const std::function<void(std::size_t I, std::uint32_t Op)> &Traced);

/// Reports the tracing overhead of a workload: the fastest traced
/// operation times (layer "traced") against the untraced ones (layer
/// "untraced"), both summed over the operations.
void noteOverhead(TraceContext &C, const std::string &Workload,
                  const LayerTimes &L);

/// \p Count adequacy-style random systems: the policy and socket count
/// (1-4) follow the index; the task count (3-8) and the load (30-60 %)
/// take every value equally often, in a seeded order. So every seed has
/// the same make-up, and about the same arrivals to generate at set-up,
/// whose cost grows with the square of a task's arrivals.
std::vector<SystemDef> makeAdequacySystems(Rng &R, std::size_t Count);

WorkloadResult runAdequacy(const RunOptions &O);
void traceAdequacy(const RunOptions &O, TraceContext &C);

WorkloadResult runTraceInspect(const RunOptions &O);
void traceTraceInspect(const RunOptions &O, TraceContext &C);

WorkloadResult runRtaSweep(const RunOptions &O);
void traceRtaSweep(const RunOptions &O, TraceContext &C);

WorkloadResult runRosslVerify(const RunOptions &O);
void traceRosslVerify(const RunOptions &O, TraceContext &C);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H

//===- perfbench/src/harness.h - Timing, spans and reporting ---------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement core shared by the four workloads.
///
/// Timing. A workload is a fixed set of operations. After one untimed
/// warm-up pass, which also checks every output, the operations run in
/// round-robin passes until the run's time is spent; each operation's
/// time is its fastest repetition. The host this was tuned on has slow
/// phases that last seconds (README.md); spreading the repetitions of
/// every operation over the whole run and keeping the fastest one makes
/// the figures independent of when those phases fall.
///
/// Tracing. A Tracer records one span per layer call, timed from the
/// benchmark's own code: name, start, end, parent, and the operation id
/// all spans of one operation share. Spans stay in memory until the run
/// ends and are then written out as JSON.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two instants.
inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// Command-line settings of one run.
struct RunOptions {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory for spans and recorded trace files.
  std::string OutDir = "perfbench/out";
  /// Instant main() was entered: set-up time is measured from here.
  Clock::time_point ProcessStart;
  /// Peak resident set at that instant (peakRssMiB), MiB.
  double EntryRssMiB = 0;
};

/// Seeded input generator. Integer draws are made with plain modulo
/// arithmetic so the same seed gives the same inputs on every standard
/// library.
class Rng {
public:
  explicit Rng(std::uint64_t Seed) : G(Seed) {}
  /// Uniform in [Lo, Hi].
  std::uint64_t range(std::uint64_t Lo, std::uint64_t Hi) {
    return Lo + G() % (Hi - Lo + 1);
  }
  std::uint64_t raw() { return G(); }
  /// Shuffles \p V (Fisher-Yates, with range()).
  template <class T> void shuffle(std::vector<T> &V) {
    for (std::size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[range(0, I - 1)]);
  }

private:
  std::mt19937_64 G;
};

/// Failures recorded while checking outputs.
class CheckLog {
public:
  /// Records \p Ok for operation \p Op; a false one is kept with \p What.
  void expect(bool Ok, std::size_t Op, const std::string &What);
  bool failed(std::size_t Op) const;
  const std::vector<std::pair<std::size_t, std::string>> &failures() const {
    return Failures;
  }
  std::uint64_t checks() const { return Checks; }

private:
  std::vector<std::pair<std::size_t, std::string>> Failures;
  std::uint64_t Checks = 0;
};

/// One operation of a workload. Run executes it once and returns a
/// digest of its output; with a CheckLog it also checks the output
/// (the warm-up pass). Timed repetitions compare their digest with the
/// warm-up one, so a repetition that computes something else fails.
struct Operation {
  std::string Name;
  std::function<std::uint64_t(CheckLog *Log, std::size_t Index)> Run;
};

/// Result of timing an operation set.
struct TimedOps {
  std::vector<double> BestSec; ///< Fastest repetition per operation.
  std::size_t Passes = 0;      ///< Timed passes (warm-up excluded).
  std::uint64_t Attempted = 0; ///< Operation runs, warm-up included.
  std::uint64_t Failed = 0;    ///< Runs whose check or digest failed.
  CheckLog Log;
};

/// Round-robin passes over \p N operations: whole passes, at least
/// three, until \p Seconds have passed. Each pass starts one operation
/// later than the one before, which spreads each operation's
/// neighbours. \p Step gets the operation index and the pass number.
void roundRobin(std::size_t N, double Seconds,
                const std::function<void(std::size_t I, std::size_t Pass)>
                    &Step);

/// Warm-up-and-check pass, then round-robin timed passes until
/// \p Seconds have passed.
TimedOps timeOperations(const std::vector<Operation> &Ops, double Seconds);

/// Interpolated quantile (0 <= Q <= 1) of \p V; V need not be sorted.
double quantile(std::vector<double> V, double Q);

/// Peak resident set of this process since it was started (VmHWM in
/// /proc/self/status), MiB. getrusage's ru_maxrss is not used: Linux
/// carries it over exec from the parent process, so under a launcher it
/// reads the launcher's peak when that is higher.
double peakRssMiB();

/// A fixed integer kernel with no library code: the fastest of five
/// runs, in ms. Printed beside the metrics so a slow host phase shows.
double hostProbeMs();

/// One span: a layer call timed from the benchmark.
struct Span {
  std::uint32_t Op = 0;    ///< Operation id shared by its spans.
  std::int32_t Parent = -1; ///< Index of the enclosing span, -1 at top.
  const char *Name = "";
  std::int64_t StartNs = 0;
  std::int64_t EndNs = 0;
};

/// In-memory span recorder (single-threaded).
class Tracer {
public:
  Tracer();
  /// Opens a span under the innermost open one; returns its index.
  std::size_t begin(const char *Name, std::uint32_t Op);
  /// Closes span \p Idx; returns its duration in seconds.
  double end(std::size_t Idx);
  const std::vector<Span> &spans() const { return Spans; }
  /// Writes every span and the per-name totals (count, total and self
  /// time) as JSON; returns false when the file cannot be written.
  bool write(const std::string &Path, const std::string &Header) const;

private:
  std::int64_t nowNs() const;
  Clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<std::size_t> Open;
};

/// RAII span. The duration is available after stop() or destruction.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const char *Name, std::uint32_t Op)
      : T(T), Idx(T.begin(Name, Op)) {}
  ~ScopedSpan() { stop(); }
  double stop() {
    if (!Stopped) {
      Sec = T.end(Idx);
      Stopped = true;
    }
    return Sec;
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer &T;
  std::size_t Idx;
  double Sec = 0;
  bool Stopped = false;
};

/// Fastest duration per (layer name, operation), filled by the traced
/// passes: each layer's figure is the sum over operations of their
/// fastest call, the same estimator as the end-to-end metrics.
class LayerTimes {
public:
  void note(const std::string &Layer, std::size_t Op, double Sec);
  /// Sum over operations of the fastest call of \p Layer (seconds).
  double sumBest(const std::string &Layer) const;

private:
  std::map<std::string, std::map<std::size_t, double>> Best;
};

/// A named metric with its unit, as printed in the result line.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// The result of one workload run.
struct WorkloadResult {
  bool Correct = true;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Extra human-readable lines printed before the result line.
  std::vector<std::string> Notes;
};

/// FNV-1a style 64-bit mixing for output digests.
inline std::uint64_t mix(std::uint64_t H, std::uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
  return H * 0x100000001b3ull;
}

/// The untraced run of a workload whose set-up has just ended: takes
/// the set-up time from O.ProcessStart, times \p Ops (timeOperations)
/// and reports the end-to-end metrics, with \p TotalsNote (called after
/// the checked pass has filled the workload's totals) among the notes.
WorkloadResult timeWorkload(const RunOptions &O,
                            const std::vector<Operation> &Ops,
                            const std::function<std::string()> &TotalsNote);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H

//===- perfbench/src/harness.cpp -------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

namespace perfbench {

void CheckLog::expect(bool Ok, std::size_t Op, const std::string &What) {
  ++Checks;
  if (!Ok)
    Failures.emplace_back(Op, What);
}

bool CheckLog::failed(std::size_t Op) const {
  for (const auto &[I, W] : Failures)
    if (I == Op)
      return true;
  return false;
}

void roundRobin(std::size_t N, double Seconds,
                const std::function<void(std::size_t I, std::size_t Pass)>
                    &Step) {
  constexpr std::size_t MinPasses = 3;
  const Clock::time_point Start = Clock::now();
  for (std::size_t Pass = 0;
       Pass < MinPasses || secondsBetween(Start, Clock::now()) < Seconds;
       ++Pass)
    for (std::size_t K = 0; K < N; ++K)
      Step((K + Pass) % N, Pass);
}

TimedOps timeOperations(const std::vector<Operation> &Ops, double Seconds) {
  TimedOps T;
  const std::size_t N = Ops.size();
  T.BestSec.assign(N, INFINITY);
  std::vector<std::uint64_t> Digest(N, 0);
  std::vector<char> Bad(N, 0);

  // Warm-up pass: fills lazy state outside the program objects (the
  // allocator, the page cache for recorded files) and checks outputs.
  for (std::size_t I = 0; I < N; ++I) {
    Digest[I] = Ops[I].Run(&T.Log, I);
    ++T.Attempted;
    if (T.Log.failed(I)) {
      Bad[I] = 1;
      ++T.Failed;
    }
  }

  roundRobin(N, Seconds, [&](std::size_t I, std::size_t Pass) {
    T.Passes = Pass + 1;
    const Clock::time_point A = Clock::now();
    const std::uint64_t D = Ops[I].Run(nullptr, I);
    const Clock::time_point B = Clock::now();
    T.BestSec[I] = std::min(T.BestSec[I], secondsBetween(A, B));
    ++T.Attempted;
    if (Bad[I] || D != Digest[I]) {
      ++T.Failed;
      if (!Bad[I])
        T.Log.expect(false, I, Ops[I].Name + ": repetition digest differs");
      Bad[I] = 1;
    }
  });
  return T;
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * double(V.size() - 1);
  const std::size_t Lo = static_cast<std::size_t>(std::floor(Pos));
  const std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double peakRssMiB() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  unsigned long long KiB = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %llu kB", &KiB) == 1)
      break;
  std::fclose(F);
  return double(KiB) / 1024.0;
}

double hostProbeMs() {
  // A dependent integer chain over a 256 KiB table: a mix of ALU work
  // and cache traffic, independent of every library under test.
  static std::vector<std::uint32_t> Table(1 << 16);
  std::iota(Table.begin(), Table.end(), 7u);
  double Best = INFINITY;
  volatile std::uint64_t Sink = 0;
  for (int Rep = 0; Rep < 5; ++Rep) {
    const Clock::time_point A = Clock::now();
    std::uint64_t X = 88172645463325252ull;
    for (int I = 0; I < 500000; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      X += Table[X & 0xffff];
    }
    Sink = Sink + X;
    Best = std::min(Best, secondsBetween(A, Clock::now()) * 1e3);
  }
  return Best;
}

Tracer::Tracer() : Epoch(Clock::now()) {}

std::int64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Epoch)
      .count();
}

std::size_t Tracer::begin(const char *Name, std::uint32_t Op) {
  Span S;
  S.Op = Op;
  S.Parent = Open.empty() ? -1 : static_cast<std::int32_t>(Open.back());
  S.Name = Name;
  Spans.push_back(S);
  Open.push_back(Spans.size() - 1);
  // Stamp last, so the bookkeeping above stays outside the span.
  Spans.back().StartNs = nowNs();
  return Spans.size() - 1;
}

double Tracer::end(std::size_t Idx) {
  Spans[Idx].EndNs = nowNs();
  if (!Open.empty() && Open.back() == Idx)
    Open.pop_back();
  return double(Spans[Idx].EndNs - Spans[Idx].StartNs) * 1e-9;
}

bool Tracer::write(const std::string &Path, const std::string &Header) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  // Self time = own duration minus the time covered by direct children.
  std::vector<std::int64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[static_cast<std::size_t>(S.Parent)] += S.EndNs - S.StartNs;
  struct Agg {
    std::uint64_t Count = 0;
    std::int64_t TotalNs = 0;
    std::int64_t SelfNs = 0;
  };
  std::map<std::string, Agg> ByName;
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    Agg &A = ByName[Spans[I].Name];
    ++A.Count;
    A.TotalNs += Spans[I].EndNs - Spans[I].StartNs;
    A.SelfNs += Spans[I].EndNs - Spans[I].StartNs - ChildNs[I];
  }
  std::fprintf(F, "{%s,\n\"layers\": {", Header.c_str());
  bool First = true;
  for (const auto &[Name, A] : ByName) {
    std::fprintf(F,
                 "%s\n  \"%s\": {\"count\": %llu, \"total_ms\": %.6f, "
                 "\"self_ms\": %.6f}",
                 First ? "" : ",", Name.c_str(),
                 static_cast<unsigned long long>(A.Count),
                 double(A.TotalNs) * 1e-6, double(A.SelfNs) * 1e-6);
    First = false;
  }
  std::fprintf(F, "\n},\n\"spans\": [");
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s\n{\"id\": %zu, \"op\": %u, \"parent\": %d, \"name\": "
                 "\"%s\", \"start_ns\": %lld, \"end_ns\": %lld}",
                 I ? "," : "", I, S.Op, S.Parent, S.Name,
                 static_cast<long long>(S.StartNs),
                 static_cast<long long>(S.EndNs));
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

void LayerTimes::note(const std::string &Layer, std::size_t Op, double Sec) {
  auto &M = Best[Layer];
  auto It = M.find(Op);
  if (It == M.end())
    M.emplace(Op, Sec);
  else
    It->second = std::min(It->second, Sec);
}

double LayerTimes::sumBest(const std::string &Layer) const {
  auto It = Best.find(Layer);
  if (It == Best.end())
    return 0;
  double S = 0;
  for (const auto &[Op, Sec] : It->second)
    S += Sec;
  return S;
}

WorkloadResult timeWorkload(const RunOptions &O,
                            const std::vector<Operation> &Ops,
                            const std::function<std::string()> &TotalsNote) {
  const double SetupSec = secondsBetween(O.ProcessStart, Clock::now());
  const double SetupRss = peakRssMiB();
  const TimedOps T = timeOperations(Ops, O.Seconds);
  const double Sum = std::accumulate(T.BestSec.begin(), T.BestSec.end(), 0.0);
  std::vector<double> Ms;
  for (double S : T.BestSec)
    Ms.push_back(S * 1e3);
  const double PeakRss = peakRssMiB();
  WorkloadResult R;
  R.Metrics.push_back({"ops_per_s", double(T.BestSec.size()) / Sum, "ops/s"});
  R.Metrics.push_back({"op_p50_ms", quantile(Ms, 0.5), "ms"});
  R.Metrics.push_back({"op_p90_ms", quantile(Ms, 0.9), "ms"});
  R.Metrics.push_back({"peak_rss_mib", PeakRss, "MiB"});
  R.Metrics.push_back({"setup_s", SetupSec, "s"});
  R.Attempted = T.Attempted;
  R.Failed = T.Failed;
  R.Correct = T.Log.failures().empty();
  for (const auto &[Op, What] : T.Log.failures())
    R.Notes.push_back("FAILED op " + std::to_string(Op) + ": " + What);
  R.Notes.push_back("timed passes " + std::to_string(T.Passes) + " over " +
                    std::to_string(T.BestSec.size()) + " operations, " +
                    std::to_string(T.Log.checks()) + " output checks");
  char Buf[200];
  std::snprintf(Buf, sizeof(Buf),
                "peak RSS %.2f MiB: %.2f at main() entry, %.2f after "
                "set-up, %.2f more in the operations and their checks",
                PeakRss, O.EntryRssMiB, SetupRss, PeakRss - SetupRss);
  R.Notes.push_back(Buf);
  R.Notes.push_back(TotalsNote());
  return R;
}

} // namespace perfbench

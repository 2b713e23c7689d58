//===- perfbench/src/main.cpp - Benchmark entry point ----------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   perfbench --workload <adequacy|trace_inspect|rta_sweep|rossl_verify>
///             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
///
/// Untraced (--trace 0): runs one workload and prints its end-to-end
/// metrics. Traced (--trace 1): runs the traced share of all four
/// workloads, writes their spans to <out-dir>/spans-*.json, and prints
/// every per-layer metric. The last line of standard output is the
/// result object; the lines before it are notes.
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

using namespace perfbench;

void perfbench::checkedPass(const std::vector<Operation> &Ops,
                            TraceContext &C) {
  CheckLog Log;
  for (std::size_t I = 0; I < Ops.size(); ++I) {
    Ops[I].Run(&Log, I);
    ++C.Attempted;
    C.Failed += Log.failed(I);
  }
  for (const auto &[Op, What] : Log.failures())
    C.Log.expect(false, Op, What);
}

void perfbench::tracedPasses(
    TraceContext &C, const std::vector<Operation> &Ops, LayerTimes &L,
    const std::function<void(std::size_t I, std::uint32_t Op)> &Traced) {
  roundRobin(Ops.size(), C.Seconds, [&](std::size_t I, std::size_t Pass) {
    auto Untraced = [&] {
      const Clock::time_point A = Clock::now();
      Ops[I].Run(nullptr, I);
      L.note("untraced", I, secondsBetween(A, Clock::now()));
    };
    if (Pass % 2 == 0)
      Untraced();
    Traced(I, C.NextOp++);
    if (Pass % 2 == 1)
      Untraced();
  });
}

void perfbench::noteOverhead(TraceContext &C, const std::string &Workload,
                             const LayerTimes &L) {
  const double Untraced = L.sumBest("untraced");
  const double Traced = L.sumBest("traced");
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "%s: tracing overhead %+.2f%% (traced %.3f ms vs untraced "
                "%.3f ms, sums of fastest operation times)",
                Workload.c_str(), 100.0 * (Traced - Untraced) / Untraced,
                Traced * 1e3, Untraced * 1e3);
  C.Notes.push_back(Buf);
}

namespace {

const char *const Usage =
    "usage: perfbench --workload <adequacy|trace_inspect|rta_sweep|"
    "rossl_verify> --seed <n> --seconds <s> --trace <0|1> "
    "[--out-dir <dir>]\n";

bool parseArgs(int Argc, char **Argv, RunOptions &O) {
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    if (I + 1 >= Argc)
      return false;
    const char *V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, &End, 10);
      if (*V == '\0' || *End != '\0')
        return false;
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V, &End);
      if (*V == '\0' || *End != '\0' || !(O.Seconds > 0) || O.Seconds > 600)
        return false;
    } else if (A == "--trace") {
      if (std::strcmp(V, "0") != 0 && std::strcmp(V, "1") != 0)
        return false;
      O.Trace = V[0] == '1';
    } else if (A == "--out-dir") {
      O.OutDir = V;
    } else {
      return false;
    }
  }
  return HaveWorkload;
}

void printResult(const WorkloadResult &R) {
  for (const std::string &N : R.Notes)
    std::printf("# %s\n", N.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  for (std::size_t I = 0; I < R.Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", R.Metrics[I].Name.c_str(), R.Metrics[I].Value,
                R.Metrics[I].Unit.c_str());
  std::printf("}}\n");
}

WorkloadResult runUntraced(const RunOptions &O) {
  if (O.Workload == "adequacy")
    return runAdequacy(O);
  if (O.Workload == "trace_inspect")
    return runTraceInspect(O);
  if (O.Workload == "rta_sweep")
    return runRtaSweep(O);
  return runRosslVerify(O);
}

/// The traced run: every workload's layers, a quarter of the time each.
WorkloadResult runTraced(const RunOptions &O) {
  WorkloadResult R;
  Tracer Spans;
  TraceContext C{Spans, R.Metrics, R.Notes, 0, 2, {}, 0, 0};
  C.Seconds = O.Seconds / 4;
  traceAdequacy(O, C);
  traceTraceInspect(O, C);
  traceRtaSweep(O, C);
  traceRosslVerify(O, C);
  R.Attempted = C.Attempted;
  R.Failed = C.Failed;
  R.Correct = C.Log.failures().empty();
  for (const auto &[Op, What] : C.Log.failures())
    R.Notes.push_back("FAILED op " + std::to_string(Op) + ": " + What);
  const std::string Path = O.OutDir + "/spans-" + O.Workload + "-seed" +
                           std::to_string(O.Seed) + ".json";
  const std::string Header = "\"workload\": \"" + O.Workload +
                             "\", \"seed\": " + std::to_string(O.Seed);
  if (!Spans.write(Path, Header)) {
    R.Correct = false;
    R.Notes.push_back("cannot write " + Path);
  } else {
    R.Notes.push_back("spans written to " + Path + " (" +
                      std::to_string(Spans.spans().size()) + " spans)");
  }
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  O.ProcessStart = Clock::now();
  O.EntryRssMiB = peakRssMiB();
  if (!parseArgs(Argc, Argv, O) ||
      (O.Workload != "adequacy" && O.Workload != "trace_inspect" &&
       O.Workload != "rta_sweep" && O.Workload != "rossl_verify")) {
    std::fputs(Usage, stderr);
    return 2;
  }
  try {
    std::filesystem::create_directories(O.OutDir);
    WorkloadResult R = O.Trace ? runTraced(O) : runUntraced(O);
    R.Notes.push_back("host probe " + std::to_string(hostProbeMs()) +
                      " ms (fixed integer kernel, fastest of 5)");
    printResult(R);
    std::fflush(stdout);
    return 0;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
}

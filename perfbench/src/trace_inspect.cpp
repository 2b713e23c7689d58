//===- perfbench/src/trace_inspect.cpp - The trace_inspect workload --------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One operation re-verifies one recorded chunked-v2 trace file the way
/// examples/trace_inspector.cpp does: readTraceStream feeds the
/// timestamp and protocol checkers and ScheduleBuilder in one pass.
/// Set-up records the files: FdScheduler streams each run into a
/// ChunkedTraceWriter. The files are removed when the run ends.
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "adequacy/spec_parser.h"
#include "convert/schedule_builder.h"
#include "rossl/scheduler.h"
#include "sim/environment.h"
#include "sim/workload.h"
#include "trace/check_sinks.h"
#include "trace/chunked_io.h"

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <streambuf>

#include <unistd.h>

using namespace rprosa;

namespace perfbench {
namespace {

constexpr std::size_t NumOps = 108;
constexpr Duration ArrivalHorizon = 900 * TickUs;
/// Slack after the last arrival so every run drains its queues.
constexpr Duration RunHorizon = 1200 * TickUs;

/// A recorded trace file and what the recording side saw.
struct Recording {
  std::string Path;
  std::uint32_t Sockets = 1;
  std::uint64_t Markers = 0;
  std::uint64_t Completions = 0;
  std::uint64_t Hash = 0;
  std::uint64_t Bytes = 0;
  TimedTrace TT; ///< Kept only for the traced run's writer timing.
};

/// The directory of one run's recorded files; removed on destruction.
class RecordDir {
public:
  explicit RecordDir(const std::string &OutDir)
      : Path(OutDir + "/traces-" + std::to_string(::getpid())) {
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~RecordDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
  RecordDir(const RecordDir &) = delete;
  RecordDir &operator=(const RecordDir &) = delete;
  const std::string Path;
};

/// Set-up: parse each system's spec, generate its arrivals, and record
/// one simulator run into a chunked trace file.
std::vector<Recording> record(std::uint64_t Seed, const RecordDir &Dir,
                              bool KeepTrace) {
  static const CostModelKind Costs[] = {CostModelKind::Uniform,
                                        CostModelKind::AlwaysWcet,
                                        CostModelKind::HalfWcet};
  static const WorkloadStyle Styles[] = {WorkloadStyle::GreedyDense,
                                         WorkloadStyle::Random,
                                         WorkloadStyle::Sparse};
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 2);
  const std::vector<SystemDef> Defs = makeAdequacySystems(R, NumOps);
  std::vector<Recording> Recs(NumOps);
  for (std::size_t I = 0; I < NumOps; ++I) {
    const SystemDef &Def = Defs[I];
    CheckResult Diags;
    std::optional<SystemSpec> Sys =
        parseSystemSpec(Def.specText("inspect-" + std::to_string(I)), &Diags);
    if (!Sys)
      throw std::runtime_error("generated spec rejected: " +
                               Diags.describe());
    WorkloadSpec WS;
    WS.NumSockets = Def.Sockets;
    WS.Horizon = ArrivalHorizon;
    WS.Seed = R.raw();
    WS.Style = Styles[(I / 3) % 3];
    const ArrivalSequence Arr = generateWorkload(Sys->Client.Tasks, WS);

    Recording &Rec = Recs[I];
    Rec.Path = Dir.Path + "/trace-" + std::to_string(I) + ".v2";
    Rec.Sockets = Def.Sockets;
    std::ofstream Out(Rec.Path, std::ios::binary);
    ChunkedTraceWriter Writer(Out);
    HashSink Hash;
    VectorSink Keep;
    TraceFanout Fan;
    Fan.add(Writer);
    Fan.add(Hash);
    if (KeepTrace)
      Fan.add(Keep);
    Environment Env(Arr);
    CostModel Cost(Sys->Client.Wcets, Costs[(I / 9) % 3], R.raw());
    FdScheduler Sched(Sys->Client, Env, Cost);
    RunLimits Limits;
    Limits.Horizon = RunHorizon;
    Sched.run(Limits, Fan);
    Out.close();
    if (!Out || Writer.written() != Hash.markers())
      throw std::runtime_error("cannot record " + Rec.Path);
    Rec.Markers = Writer.written();
    Rec.Completions = Hash.completions();
    Rec.Hash = Hash.hash();
    Rec.Bytes = std::filesystem::file_size(Rec.Path);
    if (KeepTrace)
      Rec.TT = Keep.take();
  }
  return Recs;
}

std::vector<Operation> makeOps(const std::vector<Recording> &Recs) {
  std::vector<Operation> Ops;
  for (std::size_t I = 0; I < Recs.size(); ++I)
    Ops.push_back({"trace_inspect-" + std::to_string(I),
                   [&Recs](CheckLog *Log, std::size_t K) {
                     const Recording &Rec = Recs[K];
                     std::ifstream In(Rec.Path, std::ios::binary);
                     TimestampCheckSink Ts;
                     ProtocolCheckSink Prot(Rec.Sockets);
                     ScheduleCapture Capture;
                     ScheduleBuilder Builder(Rec.Sockets, Capture);
                     TraceFanout Fan;
                     Fan.add(Ts);
                     Fan.add(Prot);
                     Fan.add(Builder);
                     HashSink Hash;
                     if (Log)
                       Fan.add(Hash);
                     CheckResult Diags;
                     TraceStreamStats Stats;
                     const bool Parsed =
                         readTraceStream(In, Fan, &Diags, &Stats);
                     const ConversionResult CR = Capture.take();
                     std::uint64_t Completed = 0;
                     for (const ConvertedJob &CJ : CR.Jobs)
                       Completed += CJ.CompletedAt.has_value();
                     if (Log) {
                       const std::string Op = "trace_inspect op " +
                                              std::to_string(K) + ": ";
                       Log->expect(Parsed && Stats.SawEnd, K,
                                   Op + "unreadable: " + Diags.describe());
                       Log->expect(Stats.Events == Rec.Markers, K,
                                   Op + "marker count differs from the "
                                        "writer's");
                       Log->expect(Hash.hash() == Rec.Hash &&
                                       Hash.markers() == Rec.Markers,
                                   K,
                                   Op + "(timestamp, marker) hash differs "
                                        "from the recording side");
                       Log->expect(Ts.result().passed() &&
                                       Prot.result().passed(),
                                   K,
                                   Op + "timestamp or protocol check "
                                        "rejected the trace");
                       Log->expect(Completed == Rec.Completions &&
                                       CR.Jobs.size() == Rec.Completions,
                                   K,
                                   Op + "converted jobs differ from the "
                                        "completion markers");
                     }
                     return mix(mix(mix(Stats.Events, CR.Jobs.size()),
                                    Completed),
                                Ts.result().passed() +
                                    2 * Prot.result().passed());
                   }});
  return Ops;
}

/// An output stream buffer that only counts what is written to it.
class CountingBuf final : public std::streambuf {
public:
  std::uint64_t Bytes = 0;

protected:
  std::streamsize xsputn(const char *, std::streamsize N) override {
    Bytes += static_cast<std::uint64_t>(N);
    return N;
  }
  int_type overflow(int_type C) override {
    if (!traits_type::eq_int_type(C, traits_type::eof()))
      ++Bytes;
    return traits_type::not_eof(C);
  }
};

std::string totalsNote(const std::vector<Recording> &Recs) {
  std::uint64_t Markers = 0, Bytes = 0;
  for (const Recording &R : Recs) {
    Markers += R.Markers;
    Bytes += R.Bytes;
  }
  return "trace_inspect: " + std::to_string(Recs.size()) + " files, " +
         std::to_string(Markers) + " markers, " + std::to_string(Bytes) +
         " bytes";
}

} // namespace

WorkloadResult runTraceInspect(const RunOptions &O) {
  RecordDir Dir(O.OutDir);
  std::vector<Recording> Recs = record(O.Seed, Dir, /*KeepTrace=*/false);
  return timeWorkload(O, makeOps(Recs), [&] { return totalsNote(Recs); });
}

void traceTraceInspect(const RunOptions &O, TraceContext &C) {
  RecordDir Dir(O.OutDir);
  std::vector<Recording> Recs = record(O.Seed, Dir, /*KeepTrace=*/true);
  std::vector<Operation> Ops = makeOps(Recs);
  checkedPass(Ops, C);

  LayerTimes L;
  Tracer &S = C.Spans;
  tracedPasses(C, Ops, L, [&](std::size_t I, std::uint32_t Op) {
    const Recording &Rec = Recs[I];
    ScopedSpan OpSpan(S, "trace_inspect.op", Op);
    {
      ScopedSpan Sp(S, "trace_inspect.inspect", Op);
      Ops[I].Run(nullptr, I);
      L.note("traced", I, Sp.stop());
    }
    {
      ScopedSpan Sp(S, "trace.readTraceStream", Op);
      std::ifstream In(Rec.Path, std::ios::binary);
      CountSink Count;
      readTraceStream(In, Count);
      L.note("trace.read", I, Sp.stop());
    }
    {
      ScopedSpan Sp(S, "trace.ChunkedTraceWriter", Op);
      CountingBuf Buf;
      std::ostream Out(&Buf);
      ChunkedTraceWriter Writer(Out);
      replayTimedTrace(Rec.TT, Writer);
      L.note("trace.write", I, Sp.stop());
    }
  });

  double Markers = 0, Bytes = 0;
  for (const Recording &R : Recs) {
    Markers += double(R.Markers);
    Bytes += double(R.Bytes);
  }
  std::vector<Metric> &M = C.Metrics;
  M.push_back({"trace.bytes_per_marker", Bytes / Markers, "B/marker"});
  M.push_back({"trace.write_ns_per_marker",
               L.sumBest("trace.write") * 1e9 / Markers, "ns/marker"});
  M.push_back({"trace.read_ns_per_marker",
               L.sumBest("trace.read") * 1e9 / Markers, "ns/marker"});
  M.push_back({"trace.read_mb_per_s", Bytes / L.sumBest("trace.read") / 1e6,
               "MB/s"});
  C.Notes.push_back(totalsNote(Recs));
  noteOverhead(C, "trace_inspect", L);
}

} // namespace perfbench

//===- perfbench/src/rossl_verify.cpp - The rossl_verify workload ----------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One operation verifies one Caesium program from source text, as
/// rp_verify does: parseProgram -> buildCfg -> verifyProtocol ->
/// runUnifiedAnalyses -> refineFindings (replay on) -> analyzeTiming.
/// The programs: the Rössl loop at 1-32 sockets, the four mutant
/// corpora of analysis/mutants.h, and seeded "grown" programs — Rössl
/// with marker-free, trap-free callback code inserted into its execution
/// and idling segments. Set-up prints every program to source text.
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "analysis/cfg.h"
#include "analysis/dataflow/analyses.h"
#include "analysis/dataflow/witness.h"
#include "analysis/mutants.h"
#include "analysis/timing/segment_costs.h"
#include "analysis/verifier.h"
#include "caesium/interp.h"
#include "caesium/parser.h"
#include "caesium/print.h"
#include "caesium/rossl_program.h"
#include "sim/workload.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

using namespace rprosa;
using namespace rprosa::analysis;
namespace cs = rprosa::caesium;
namespace df = rprosa::analysis::dataflow;

namespace perfbench {
namespace {

constexpr std::uint32_t MaxRosslSockets = 32;
constexpr std::size_t NumGrown = 48;

enum class Kind : std::uint8_t { Rossl, Protocol, Timing, ValueRange, Witness, Grown };

struct Program {
  std::string Name;
  Kind K = Kind::Rossl;
  std::uint32_t Sockets = 1;
  std::string Text;
  std::string ExpectedCheckId;    ///< Value-range and witness mutants.
  std::string ExpectedRefinement; ///< Witness mutants.
};

/// The tables the timing stage analyzes against (as rp_verify --timing):
/// the typical deployment's WCETs, unit instruction costs, and a 10 us
/// callback budget.
StaticCostParams timingParams() {
  StaticCostParams P;
  P.Wcets = BasicActionWcets::typicalDeployment();
  P.Instr = InstructionCosts::unit();
  P.MaxCallbackWcet = 10 * TickUs;
  return P;
}

std::string rosslText(std::uint32_t N) {
  cs::AstArena A;
  return cs::printStmt(*cs::buildRosslProgram(A, N));
}

/// Marker-free, trap-free code on the spare registers r4-r7: counter
/// loops with small bounds and straight-line arithmetic, so every value
/// stays far inside the verifier's register bound. The block kinds
/// rotate and the seed picks registers and constants only, so a program
/// of \p Blocks blocks has the same CFG size on every seed: the
/// analyses' memory grows with it (the largest grown program, at
/// 1128-1347 CFG nodes on two seeds, set a peak RSS of 8.3 or 9.2 MiB).
std::string callbackCode(Rng &R, std::size_t Blocks, const std::string &Ind) {
  std::string S;
  for (std::size_t B = 0; B < Blocks; ++B) {
    const std::string Reg = "r" + std::to_string(R.range(4, 7));
    const std::string Other = "r" + std::to_string(R.range(4, 7));
    switch (B % 3) {
    case 0:
      S += Ind + Reg + " = 0;\n";
      S += Ind + "while ((" + Reg + " < " + std::to_string(R.range(2, 12)) +
           ")) {\n" + Ind + "  " + Reg + " = (" + Reg + " + 1);\n" + Ind +
           "}\n";
      break;
    case 1:
      S += Ind + Other + " = " + std::to_string(R.range(0, 9)) + ";\n";
      S += Ind + Reg + " = ((" + Other + " + " +
           std::to_string(R.range(1, 20)) + ") - " +
           std::to_string(R.range(0, 9)) + ");\n";
      break;
    default:
      S += Ind + Reg + " = " + std::to_string(R.range(0, 30)) + ";\n";
      break;
    }
  }
  return S;
}

/// Inserts \p Code after the first line containing \p Anchor, at that
/// line's indentation.
std::string insertAfter(const std::string &Text, const std::string &Anchor,
                        Rng &R, std::size_t Blocks) {
  const std::size_t At = Text.find(Anchor);
  if (At == std::string::npos)
    throw std::runtime_error("anchor not found: " + Anchor);
  const std::size_t LineStart = Text.rfind('\n', At) + 1;
  const std::size_t LineEnd = Text.find('\n', At) + 1;
  const std::string Ind = Text.substr(LineStart, At - LineStart);
  return Text.substr(0, LineEnd) + callbackCode(R, Blocks, Ind) +
         Text.substr(LineEnd);
}

/// Set-up: every program printed to source text.
std::vector<Program> buildPrograms(std::uint64_t Seed) {
  std::vector<Program> Ps;
  for (std::uint32_t N = 1; N <= MaxRosslSockets; ++N)
    Ps.push_back({"rossl-" + std::to_string(N), Kind::Rossl, N, rosslText(N),
                  "", ""});
  auto AddCorpus = [&](Kind K, const std::vector<Mutant> &Ms,
                       std::uint32_t N) {
    for (const Mutant &M : Ms)
      Ps.push_back({M.Name + "-" + std::to_string(N), K, N,
                    cs::printStmt(*M.Program), M.ExpectedCheckId,
                    M.ExpectedRefinement});
  };
  for (std::uint32_t N : {1u, 2u, 4u}) {
    AddCorpus(Kind::Protocol, protocolMutantCorpus(N), N);
    AddCorpus(Kind::Timing, timingMutantCorpus(N), N);
    AddCorpus(Kind::ValueRange, valueRangeMutantCorpus(N), N);
    AddCorpus(Kind::Witness, witnessMutantCorpus(N), N);
  }
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 4);
  for (std::size_t I = 0; I < NumGrown; ++I) {
    // Sizes and socket counts follow a fixed ladder, so every seed does
    // the same amount of work: 2-512 blocks in the execution segment,
    // log-spaced, from under 1 KB to tens of KB; the seed picks the code.
    const std::uint32_t N = static_cast<std::uint32_t>(1 + I % 8);
    const std::size_t Blocks = static_cast<std::size_t>(
        2.0 * std::pow(256.0, double(I) / double(NumGrown - 1)) + 0.5);
    std::string Text = rosslText(N);
    Text = insertAfter(Text, "execution_start(buf1);", R, Blocks);
    Text = insertAfter(Text, "idling_start();", R, Blocks / 4 + 1);
    Ps.push_back({"grown-" + std::to_string(I), Kind::Grown, N,
                  std::move(Text), "", ""});
  }
  return Ps;
}

/// Everything one verification produces.
struct Outcome {
  bool Parsed = false;
  std::size_t Nodes = 0;
  Verdict V;
  std::vector<df::Finding> Findings;
  df::WitnessSummary Witness;
  TimingResult Timing;
};

/// The operation's stages, each optionally inside a span.
Outcome verify(const Program &P, Tracer *T, std::uint32_t Op,
               LayerTimes *L, std::size_t Index) {
  Outcome O;
  auto Stage = [&](const char *Span, const char *Layer, auto &&Fn) {
    if (!T) {
      Fn();
      return;
    }
    ScopedSpan Sp(*T, Span, Op);
    Fn();
    L->note(Layer, Index, Sp.stop());
  };
  cs::AstArena Arena;
  std::optional<cs::StmtPtr> Root;
  Stage("caesium.parseProgram", "parse",
        [&] { Root = cs::parseProgram(Arena, P.Text); });
  if (!Root)
    return O;
  O.Parsed = true;
  Cfg G;
  Stage("analysis.buildCfg", "cfg", [&] { G = buildCfg(*Root); });
  O.Nodes = G.size();
  Stage("analysis.verifyProtocol", "verify",
        [&] { O.V = verifyProtocol(G, P.Sockets); });
  df::AnalysisOptions AO;
  AO.NumSockets = P.Sockets;
  Stage("dataflow.runUnifiedAnalyses", "unified",
        [&] { O.Findings = df::runUnifiedAnalyses(G, AO); });
  df::WitnessOptions WO;
  WO.NumSockets = P.Sockets;
  WO.Replay = true;
  Stage("dataflow.refineFindings", "witness",
        [&] { O.Witness = df::refineFindings(G, O.Findings, WO); });
  Stage("timing.analyzeTiming", "timing",
        [&] { O.Timing = analyzeTiming(G, timingParams(), P.Sockets); });
  return O;
}

std::uint64_t digest(const Outcome &O) {
  std::uint64_t H = mix(mix(O.Parsed, O.Nodes), static_cast<unsigned>(O.V.Kind));
  H = mix(mix(H, O.V.StatesExplored), O.V.TransitionsExplored);
  for (const df::Finding &F : O.Findings) {
    H = mix(mix(H, std::hash<std::string>()(F.CheckId)),
            static_cast<unsigned>(F.Sev));
    H = mix(H, F.Refined ? static_cast<unsigned>(F.Refined->St) + 1 : 0);
  }
  H = mix(H, O.Witness.Steps);
  for (const SegmentBound &B : O.Timing.Segments)
    H = mix(mix(H, B.Reachable), B.I.Hi);
  return mix(H, O.Timing.PathsExplored);
}

/// Totals and references, filled by the checked pass.
struct Totals {
  std::map<std::uint32_t, TimingResult> RosslTiming; ///< Base programs.
  std::uint64_t ObservedSegments = 0;
  std::uint64_t Bytes = 0;
  std::uint64_t Nodes = 0;
  std::uint64_t States = 0;
  std::uint64_t Transitions = 0;
  std::uint64_t WitnessSteps = 0;
  std::uint64_t Paths = 0;
  std::uint64_t ValueRangeVisits = 0;
};

/// Interprets a grown program and checks every observed segment cost
/// against the program's static bound.
bool observedWithinBounds(const Program &P, const TimingResult &T,
                          std::uint64_t Seed, std::uint64_t &Segments) {
  cs::AstArena Arena;
  std::optional<cs::StmtPtr> Root = cs::parseProgram(Arena, P.Text);
  if (!Root)
    return false;
  ClientConfig C;
  C.NumSockets = P.Sockets;
  C.Wcets = timingParams().Wcets;
  C.Tasks.addTask("fast", 2 * TickUs, 2,
                  std::make_shared<PeriodicCurve>(40 * TickUs));
  C.Tasks.addTask("slow", 10 * TickUs, 1,
                  std::make_shared<LeakyBucketCurve>(2, 90 * TickUs));
  WorkloadSpec WS;
  WS.NumSockets = P.Sockets;
  WS.Horizon = 400 * TickUs;
  WS.Seed = Seed;
  WS.Style = WorkloadStyle::GreedyDense;
  const ArrivalSequence Arr = generateWorkload(C.Tasks, WS);
  Environment Env(Arr);
  CostModel Costs(C.Wcets, CostModelKind::AlwaysWcet, Seed,
                  InstructionCosts::unit());
  cs::CaesiumMachine M(C, Env, Costs);
  RunLimits Limits;
  Limits.Horizon = 600 * TickUs;
  const TimedTrace TT = M.run(*Root, Limits);
  bool Ok = !M.trap().has_value();
  for (const ObservedSegment &S : observedSegments(TT)) {
    ++Segments;
    const SegmentBound &B = T.seg(S.Class);
    Ok &= B.Reachable && S.Len <= B.I.Hi;
  }
  return Ok;
}

void check(const Program &P, const Outcome &O, CheckLog &Log, std::size_t I,
           Totals &Tot) {
  const std::string Op = "rossl_verify " + P.Name + ": ";
  Log.expect(O.Parsed, I, Op + "printed program does not parse");
  if (!O.Parsed)
    return;
  Tot.Bytes += P.Text.size();
  Tot.Nodes += O.Nodes;
  Tot.States += O.V.StatesExplored;
  Tot.Transitions += O.V.TransitionsExplored;
  Tot.WitnessSteps += O.Witness.Steps;
  Tot.Paths += O.Timing.PathsExplored;
  switch (P.K) {
  case Kind::Rossl:
    Log.expect(O.V.verified(), I, Op + "Rössl not verified");
    Tot.RosslTiming[P.Sockets] = O.Timing;
    break;
  case Kind::Protocol:
    Log.expect(!O.V.verified(), I, Op + "protocol mutant not rejected");
    break;
  case Kind::Timing:
    Log.expect(O.V.verified(), I, Op + "timing mutant must stay "
                                       "protocol-clean");
    break;
  case Kind::ValueRange:
  case Kind::Witness: {
    const df::Finding *Hit = nullptr;
    for (const df::Finding &F : O.Findings)
      if (F.CheckId == P.ExpectedCheckId && (!Hit || F.Refined))
        Hit = &F;
    Log.expect(Hit != nullptr, I, Op + "no " + P.ExpectedCheckId + " finding");
    if (Hit && !P.ExpectedRefinement.empty())
      Log.expect(Hit->Refined &&
                     P.ExpectedRefinement == df::toString(Hit->Refined->St),
                 I, Op + "refinement is not " + P.ExpectedRefinement);
    break;
  }
  case Kind::Grown: {
    Log.expect(O.V.verified(), I,
               Op + "lost the base program's protocol verdict");
    auto Base = Tot.RosslTiming.find(P.Sockets);
    Log.expect(Base != Tot.RosslTiming.end(), I, Op + "no base timing");
    if (Base == Tot.RosslTiming.end())
      break;
    for (std::size_t C = 0; C < NumSegmentClasses; ++C) {
      const SegmentBound &B = Base->second.Segments[C];
      const SegmentBound &G = O.Timing.Segments[C];
      Log.expect(!B.Reachable || (G.Reachable && G.I.Hi >= B.I.Hi), I,
                 Op + toString(G.Class) + " bound below the base program's");
    }
    Log.expect(observedWithinBounds(P, O.Timing, I + 1, Tot.ObservedSegments),
               I, Op + "an interpreted segment exceeded its static bound");
    break;
  }
  }
}

std::vector<Operation> makeOps(const std::vector<Program> &Ps, Totals &Tot) {
  std::vector<Operation> Ops;
  for (std::size_t I = 0; I < Ps.size(); ++I)
    Ops.push_back({Ps[I].Name, [&Ps, &Tot](CheckLog *Log, std::size_t K) {
                     const Outcome O = verify(Ps[K], nullptr, 0, nullptr, K);
                     if (Log)
                       check(Ps[K], O, *Log, K, Tot);
                     return digest(O);
                   }});
  return Ops;
}

std::string totalsNote(const std::vector<Program> &Ps, const Totals &T) {
  std::size_t Grown = 0, MaxBytes = 0;
  for (const Program &P : Ps) {
    Grown += P.K == Kind::Grown;
    MaxBytes = std::max(MaxBytes, P.Text.size());
  }
  return "rossl_verify: " + std::to_string(Ps.size()) + " programs (" +
         std::to_string(Grown) + " grown, largest " +
         std::to_string(MaxBytes) + " bytes), " + std::to_string(T.Bytes) +
         " bytes, " + std::to_string(T.ObservedSegments) +
         " interpreted segments checked against static bounds";
}

} // namespace

WorkloadResult runRosslVerify(const RunOptions &O) {
  std::vector<Program> Ps = buildPrograms(O.Seed);
  Totals Tot;
  return timeWorkload(O, makeOps(Ps, Tot),
                      [&] { return totalsNote(Ps, Tot); });
}

void traceRosslVerify(const RunOptions &O, TraceContext &C) {
  std::vector<Program> Ps = buildPrograms(O.Seed);
  Totals Tot;
  std::vector<Operation> Ops = makeOps(Ps, Tot);
  checkedPass(Ops, C);

  LayerTimes L;
  std::vector<std::uint64_t> Visits(Ps.size(), 0);
  tracedPasses(C, Ops, L, [&](std::size_t I, std::uint32_t Op) {
    {
      ScopedSpan OpSpan(C.Spans, "rossl_verify.op", Op);
      verify(Ps[I], &C.Spans, Op, &L, I);
      L.note("traced", I, OpSpan.stop());
    }
    // The value-range visit count, from the solver's own entry point.
    cs::AstArena Arena;
    std::optional<cs::StmtPtr> Root = cs::parseProgram(Arena, Ps[I].Text);
    if (!Root)
      return;
    const Cfg G = buildCfg(*Root);
    df::AnalysisOptions AO;
    AO.NumSockets = Ps[I].Sockets;
    ScopedSpan Sp(C.Spans, "dataflow.analyzeValueRanges", Op);
    Visits[I] = df::analyzeValueRanges(G, AO).NodeVisits;
  });

  const double N = double(Ps.size());
  std::uint64_t TotalVisits = 0;
  for (std::uint64_t V : Visits)
    TotalVisits += V;
  std::vector<Metric> &M = C.Metrics;
  M.push_back({"caesium.parse_mb_per_s",
               double(Tot.Bytes) / L.sumBest("parse") / 1e6, "MB/s"});
  M.push_back({"analysis.cfg_ns_per_node",
               L.sumBest("cfg") * 1e9 / double(Tot.Nodes), "ns/node"});
  M.push_back({"analysis.cfg_nodes", double(Tot.Nodes) / N, "count"});
  M.push_back({"analysis.verify_us", L.sumBest("verify") * 1e6 / N, "us"});
  M.push_back({"analysis.verify_states", double(Tot.States) / N, "count"});
  M.push_back({"analysis.verify_transitions", double(Tot.Transitions) / N,
               "count"});
  M.push_back({"dataflow.unified_us", L.sumBest("unified") * 1e6 / N, "us"});
  M.push_back({"dataflow.value_range_visits", double(TotalVisits) / N,
               "count"});
  M.push_back({"dataflow.witness_us", L.sumBest("witness") * 1e6 / N, "us"});
  M.push_back({"dataflow.witness_steps", double(Tot.WitnessSteps) / N,
               "count"});
  M.push_back({"timing.analyze_us", L.sumBest("timing") * 1e6 / N, "us"});
  M.push_back({"timing.paths", double(Tot.Paths) / N, "count"});
  C.Notes.push_back(totalsNote(Ps, Tot));
  noteOverhead(C, "rossl_verify", L);
}

} // namespace perfbench

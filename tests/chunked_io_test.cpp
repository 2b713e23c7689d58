//===- tests/chunked_io_test.cpp - Chunked trace format (v2) --------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The v2 chunked on-disk format: round trips at every chunk size, the
/// v1 fallback, replay statistics, and — the crash-consistency story —
/// the error paths: a truncated or torn final chunk must produce a
/// clean diagnostic and deliver NOTHING from the offending chunk,
/// never a partial chunk and never an onEnd.
///
//===----------------------------------------------------------------------===//

#include "sim/workload.h"
#include "support/rng.h"
#include "trace/chunked_io.h"
#include "trace/serialize.h"
#include "trace/stream.h"

#include "test_util.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

using namespace rprosa;
using namespace rprosa::testutil;

namespace {

TimedTrace simTrace() {
  ClientConfig C = makeClient(mixedTasks(), 2);
  WorkloadSpec Spec;
  Spec.NumSockets = 2;
  Spec.Horizon = 4000;
  ArrivalSequence Arr = generateWorkload(C.Tasks, Spec);
  return runRossl(C, Arr, 8000);
}

std::string writeV2(const TimedTrace &TT, std::size_t EventsPerChunk) {
  std::ostringstream Out;
  writeTraceStream(Out, TT, EventsPerChunk);
  return Out.str();
}

/// A small handcrafted v2 file whose exact lines the error-path tests
/// can cut and corrupt. Sockets/jobs don't matter at the IO layer; the
/// protocol checkers live upstream of it.
const char *WellFormedV2 = "refinedprosa-trace v2\n"
                           "chunk 3\n"
                           "0 ReadS\n"
                           "2 ReadE 0 fail\n"
                           "5 Selection\n"
                           "chunk 2\n"
                           "8 Idling\n"
                           "9 ReadS\n"
                           "end 12\n";

/// Runs \p Text through readTraceStream into a VectorSink, expecting
/// failure; returns the sink + diagnostics + stats for inspection.
struct FailedRead {
  VectorSink V;
  CheckResult Diags;
  TraceStreamStats Stats;
};

FailedRead expectMalformed(const std::string &Text) {
  FailedRead R;
  std::istringstream In(Text);
  EXPECT_FALSE(readTraceStream(In, R.V, &R.Diags, &R.Stats)) << Text;
  EXPECT_FALSE(R.V.finished()) << "onEnd must not fire on malformed input";
  EXPECT_FALSE(R.Stats.SawEnd);
  EXPECT_FALSE(R.Diags.passed());
  return R;
}

/// Reads \p Text, expecting success; the v1 rendering of what it read.
std::string expectWellFormed(const std::string &Text) {
  std::istringstream In(Text);
  CheckResult Diags;
  std::optional<TimedTrace> TT = readTimedTrace(In, &Diags);
  EXPECT_TRUE(TT.has_value()) << Diags.describe() << "\n" << Text;
  return TT ? serializeTimedTrace(*TT) : "";
}

/// \p Text with every occurrence of \p From replaced by \p To.
std::string replaceAll(std::string Text, const std::string &From,
                       const std::string &To) {
  for (std::size_t At = Text.find(From); At != std::string::npos;
       At = Text.find(From, At + To.size()))
    Text.replace(At, From.size(), To);
  return Text;
}

} // namespace

TEST(ChunkedRoundTrip, SimulatedTraceSurvivesEveryChunkSize) {
  TimedTrace TT = simTrace();
  ASSERT_GT(TT.size(), 50u);
  const std::string Want = serializeTimedTrace(TT);
  for (std::size_t Epc : {std::size_t(1), std::size_t(3), std::size_t(64),
                          std::size_t(100000)}) {
    std::istringstream In(writeV2(TT, Epc));
    std::optional<TimedTrace> Got = readTimedTrace(In);
    ASSERT_TRUE(Got.has_value()) << "chunk size " << Epc;
    EXPECT_EQ(serializeTimedTrace(*Got), Want) << "chunk size " << Epc;
    EXPECT_EQ(Got->EndTime, TT.EndTime);
  }
}

TEST(ChunkedRoundTrip, StatsReportEventsChunksAndEnd) {
  TimedTrace TT = simTrace();
  const std::size_t N = TT.size();
  std::istringstream In(writeV2(TT, 7));
  VectorSink V;
  TraceStreamStats Stats;
  ASSERT_TRUE(readTraceStream(In, V, nullptr, &Stats));
  EXPECT_EQ(Stats.Events, N);
  EXPECT_EQ(Stats.Chunks, (N + 6) / 7);
  EXPECT_TRUE(Stats.SawEnd);
  EXPECT_TRUE(V.finished());
}

TEST(ChunkedRoundTrip, WriterCountsAndFinishes) {
  TimedTrace TT = simTrace();
  std::ostringstream Out;
  ChunkedTraceWriter W(Out, 16);
  EXPECT_EQ(W.written(), 0u);
  EXPECT_FALSE(W.finished());
  replayTimedTrace(TT, W);
  EXPECT_EQ(W.written(), TT.size());
  EXPECT_TRUE(W.finished());
}

TEST(ChunkedRoundTrip, V1TextStreamsThroughTheSameSink) {
  TimedTrace TT = simTrace();
  std::istringstream In(serializeTimedTrace(TT));
  VectorSink V;
  TraceStreamStats Stats;
  ASSERT_TRUE(readTraceStream(In, V, nullptr, &Stats));
  EXPECT_EQ(Stats.Events, TT.size());
  EXPECT_EQ(Stats.Chunks, 0u) << "v1 files have no chunks";
  EXPECT_TRUE(Stats.SawEnd);
  EXPECT_EQ(serializeTimedTrace(V.take()), serializeTimedTrace(TT));
}

TEST(ChunkedRoundTrip, EmptyTraceRoundTrips) {
  TimedTrace TT;
  TT.EndTime = 77;
  std::istringstream In(writeV2(TT, 4096));
  std::optional<TimedTrace> Got = readTimedTrace(In);
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(Got->size(), 0u);
  EXPECT_EQ(Got->EndTime, 77u);
}

TEST(ChunkedErrorPath, TruncatedFinalChunkDeliversNothingFromIt) {
  // Cut the file mid-chunk: header promises 2 events, only 1 present,
  // no end line (the torn-write shape of a crashed producer).
  std::string Text(WellFormedV2);
  Text = Text.substr(0, Text.find("9 ReadS"));
  FailedRead R = expectMalformed(Text);
  EXPECT_NE(R.Diags.describe().find("truncated chunk (expected 2 events, "
                                    "got 1)"),
            std::string::npos)
      << R.Diags.describe();
  // Only the complete first chunk reached the sink.
  EXPECT_EQ(R.V.trace().size(), 3u);
  EXPECT_EQ(R.Stats.Events, 3u);
  EXPECT_EQ(R.Stats.Chunks, 1u);
}

TEST(ChunkedErrorPath, TornLastLineDeliversNothingFromItsChunk) {
  // The final line is torn mid-token — the whole chunk is withheld,
  // including its first (well-formed) event.
  std::string Text(WellFormedV2);
  std::size_t At = Text.find("9 ReadS");
  Text = Text.substr(0, At) + "9 Rea";
  FailedRead R = expectMalformed(Text);
  EXPECT_NE(R.Diags.describe().find("trace parse error"), std::string::npos);
  EXPECT_EQ(R.V.trace().size(), 3u)
      << "the torn chunk's leading events must be withheld";
  EXPECT_EQ(R.Stats.Chunks, 1u);
}

TEST(ChunkedErrorPath, MissingEndLineFailsAfterFullDelivery) {
  std::string Text(WellFormedV2);
  Text = Text.substr(0, Text.find("end 12"));
  FailedRead R = expectMalformed(Text);
  EXPECT_NE(R.Diags.describe().find("missing end line"), std::string::npos);
  // Both chunks were complete, so both were delivered before the miss.
  EXPECT_EQ(R.V.trace().size(), 5u);
  EXPECT_EQ(R.Stats.Chunks, 2u);
}

TEST(ChunkedErrorPath, ContentAfterTheEndLineIsRejected) {
  std::string Text(WellFormedV2);
  Text += "chunk 1\n0 Idling\n";
  FailedRead R = expectMalformed(Text);
  EXPECT_NE(R.Diags.describe().find("content after the end line"),
            std::string::npos);
}

TEST(ChunkedErrorPath, UnknownHeaderIsRejected) {
  FailedRead R = expectMalformed("refinedprosa-trace v3\nend 0\n");
  EXPECT_NE(R.Diags.describe().find("missing or unknown header"),
            std::string::npos);
  expectMalformed("");
}

TEST(ChunkedErrorPath, MalformedChunkHeaderIsRejected) {
  std::string Text(WellFormedV2);
  std::size_t At = Text.find("chunk 2");
  Text = Text.substr(0, At) + "chunk x\n" + Text.substr(At + 8);
  FailedRead R = expectMalformed(Text);
  EXPECT_NE(R.Diags.describe().find("malformed chunk header"),
            std::string::npos);
  EXPECT_EQ(R.V.trace().size(), 3u);
}

TEST(ChunkedErrorPath, MalformedEndTimeIsRejected) {
  std::string Text(WellFormedV2);
  std::size_t At = Text.find("end 12");
  Text = Text.substr(0, At) + "end soon\n";
  FailedRead R = expectMalformed(Text);
  EXPECT_NE(R.Diags.describe().find("malformed end time"),
            std::string::npos);
}

TEST(ChunkedErrorPath, OverflowTimestampIsADiagnosticNotACrash) {
  // 21 digits does not fit in 64 bits; the parser must diagnose, not
  // crash, and must withhold the chunk it appears in.
  std::string Text(WellFormedV2);
  std::size_t At = Text.find("8 Idling");
  Text = Text.substr(0, At) + "99999999999999999999999 Idling\n" +
         Text.substr(At + 9);
  FailedRead R = expectMalformed(Text);
  EXPECT_NE(R.Diags.describe().find("trace parse error"), std::string::npos);
  EXPECT_EQ(R.V.trace().size(), 3u);
}

TEST(ChunkedErrorPath, BlankLineInsideAChunkBodyIsDiagnosedInPlace) {
  // A torn write that blanked an event line: skipping it silently would
  // shift every later event by one and misattribute the damage. The
  // diagnostic must name the blank itself, with its line number.
  std::string Text(WellFormedV2);
  std::size_t At = Text.find("2 ReadE 0 fail\n");
  Text = Text.substr(0, At) + "\n" + Text.substr(At + 15);
  FailedRead R = expectMalformed(Text);
  EXPECT_NE(R.Diags.describe().find(
                "blank line inside a chunk body (event 2 of 3"),
            std::string::npos)
      << R.Diags.describe();
  // The blank replaced line 4 of the file; the diagnostic points at it.
  EXPECT_NE(R.Diags.describe().find("at line 4"), std::string::npos)
      << R.Diags.describe();
  EXPECT_EQ(R.V.trace().size(), 0u)
      << "the damaged chunk must deliver nothing";
  // Whitespace-only counts as blank too (same torn-write shape).
  std::string WsText(WellFormedV2);
  At = WsText.find("9 ReadS\n");
  WsText = WsText.substr(0, At) + " \t\n" + WsText.substr(At + 8);
  FailedRead R2 = expectMalformed(WsText);
  EXPECT_NE(R2.Diags.describe().find("blank line inside a chunk body"),
            std::string::npos)
      << R2.Diags.describe();
  EXPECT_EQ(R2.V.trace().size(), 3u);
}

TEST(ChunkedErrorPath, ZeroEventChunkHeaderIsRejected) {
  // The writer never emits empty chunks (flushChunk returns on
  // Buffered == 0), so "chunk 0" can only be corruption. Accepting it
  // would loop the reader on a no-progress chunk.
  std::string Text(WellFormedV2);
  std::size_t At = Text.find("chunk 2");
  Text = Text.substr(0, At) + "chunk 0\n" + Text.substr(At + 8);
  FailedRead R = expectMalformed(Text);
  EXPECT_NE(R.Diags.describe().find("announces zero events"),
            std::string::npos)
      << R.Diags.describe();
  EXPECT_EQ(R.V.trace().size(), 3u)
      << "everything before the corrupt header was complete";
  EXPECT_EQ(R.Stats.Chunks, 1u);
}

TEST(ChunkedErrorPath, ReadTimedTraceReturnsNulloptOnMalformedInput) {
  std::string Text(WellFormedV2);
  Text = Text.substr(0, Text.find("9 ReadS"));
  std::istringstream In(Text);
  CheckResult Diags;
  EXPECT_FALSE(readTimedTrace(In, &Diags).has_value());
  EXPECT_FALSE(Diags.passed());
}

TEST(ChunkedAcceptSet, CrlfFilesReadLikeLfFiles) {
  // Both formats, CRLF line ends on every line: the same events as the
  // LF file, and the v1 batch parser agrees.
  TimedTrace TT = simTrace();
  const std::string Want = serializeTimedTrace(TT);
  EXPECT_EQ(expectWellFormed(replaceAll(writeV2(TT, 16), "\n", "\r\n")),
            Want);
  EXPECT_EQ(expectWellFormed(replaceAll(Want, "\n", "\r\n")), Want);
  std::optional<TimedTrace> Batch =
      parseTimedTrace(replaceAll(Want, "\n", "\r\n"));
  ASSERT_TRUE(Batch.has_value());
  EXPECT_EQ(serializeTimedTrace(*Batch), Want);
}

TEST(ChunkedAcceptSet, TabVerticalTabAndFormFeedSeparateTokens) {
  // Every separator after the header line (which must match exactly).
  const std::string Text(WellFormedV2);
  const std::size_t Body = Text.find('\n') + 1;
  const std::string Want = expectWellFormed(Text);
  for (const char *Sep : {"\t", "\v", "\f", " \t\v\f "})
    EXPECT_EQ(expectWellFormed(Text.substr(0, Body) +
                               replaceAll(Text.substr(Body), " ", Sep)),
              Want)
        << "separator " << int(Sep[0]);
}

TEST(ChunkedAcceptSet, TrailingExtraTokensAreIgnored) {
  // Accepted since the first reader; pinned so the accept set only
  // ever grows.
  std::string Text = replaceAll(WellFormedV2, "chunk 3\n", "chunk 3 x\n");
  Text = replaceAll(Text, "5 Selection\n", "5 Selection extra 7\n");
  Text = replaceAll(Text, "2 ReadE 0 fail\n", "2 ReadE 0 fail 9\n");
  Text = replaceAll(Text, "end 12\n", "end 12 done\n");
  EXPECT_EQ(expectWellFormed(Text), expectWellFormed(WellFormedV2));
}

TEST(ChunkedAcceptSet, U64MaxIsTheLargestNumber) {
  const std::string Max = "18446744073709551615";
  std::string Text = replaceAll(WellFormedV2, "8 Idling", Max + " Idling");
  Text = replaceAll(Text, "9 ReadS", Max + " ReadS");
  Text = replaceAll(Text, "end 12", "end " + Max);
  std::istringstream In(Text);
  std::optional<TimedTrace> TT = readTimedTrace(In);
  ASSERT_TRUE(TT.has_value());
  EXPECT_EQ(TT->Ts.back(), ~std::uint64_t(0));
  EXPECT_EQ(TT->EndTime, ~std::uint64_t(0));

  const std::string Over = "18446744073709551616";
  FailedRead R = expectMalformed(
      replaceAll(WellFormedV2, "8 Idling", Over + " Idling"));
  EXPECT_NE(R.Diags.describe().find("at line 7: expected a timestamp"),
            std::string::npos)
      << R.Diags.describe();
  R = expectMalformed(replaceAll(WellFormedV2, "end 12", "end " + Over));
  EXPECT_NE(R.Diags.describe().find("malformed end time"),
            std::string::npos);
  R = expectMalformed(replaceAll(WellFormedV2, "chunk 2", "chunk " + Over));
  EXPECT_NE(R.Diags.describe().find("malformed chunk header"),
            std::string::npos);
}

TEST(ChunkedAcceptSet, SignedNumbersAreRejected) {
  for (const char *Sign : {"+", "-"}) {
    const std::string S(Sign);
    FailedRead R = expectMalformed(
        replaceAll(WellFormedV2, "5 Selection", S + "5 Selection"));
    EXPECT_NE(R.Diags.describe().find("at line 5: expected a timestamp"),
              std::string::npos)
        << R.Diags.describe();
    R = expectMalformed(
        replaceAll(WellFormedV2, "2 ReadE 0 fail", "2 ReadE " + S + "0 fail"));
    EXPECT_NE(R.Diags.describe().find("at line 4: malformed ReadE"),
              std::string::npos)
        << R.Diags.describe();
    R = expectMalformed(replaceAll(WellFormedV2, "chunk 2", "chunk " + S + "2"));
    EXPECT_NE(R.Diags.describe().find("at line 6: malformed chunk header"),
              std::string::npos)
        << R.Diags.describe();
    R = expectMalformed(replaceAll(WellFormedV2, "end 12", "end " + S + "12"));
    EXPECT_NE(R.Diags.describe().find("at line 9: malformed end time"),
              std::string::npos)
        << R.Diags.describe();
  }
}

TEST(ChunkedErrorPath, MalformedLineInTheSecondChunkNamesItsFileLine) {
  // "9 ReadS" is line 8 of the file (event 2 of the second chunk).
  FailedRead R =
      expectMalformed(replaceAll(WellFormedV2, "9 ReadS", "9 ReadX"));
  EXPECT_NE(R.Diags.describe().find(
                "trace parse error at line 8: unknown marker kind 'ReadX'"),
            std::string::npos)
      << R.Diags.describe();
  EXPECT_EQ(R.V.trace().size(), 3u);
  EXPECT_EQ(R.Stats.Chunks, 1u);
}

namespace {

/// One seeded mutation of a trace text: a byte flip, a truncation, a
/// duplicated, deleted or blank line, or an inserted carriage return.
void mutate(std::string &Text, SplitMix64 &Rng) {
  static const char Bytes[] = {'0', '9', ' ', '\t', '\r', '\n', 'x', '-',
                               '+', '\0', 'e', 'k'};
  auto LineStart = [&](std::size_t At) {
    std::size_t B = Text.rfind('\n', At == 0 ? 0 : At - 1);
    return B == std::string::npos || At == 0 ? 0 : B + 1;
  };
  if (Text.empty()) {
    Text += "\n";
    return;
  }
  const std::size_t At = Rng.nextInRange(0, Text.size() - 1);
  switch (Rng.nextInRange(0, 5)) {
  case 0: // Byte flip.
    Text[At] = Rng.nextInRange(0, 3) == 0
                   ? char(Rng.nextInRange(0, 255))
                   : Bytes[Rng.nextInRange(0, sizeof(Bytes) - 1)];
    break;
  case 1: // Truncation.
    Text.resize(At);
    break;
  case 2: { // Duplicated line.
    std::size_t B = LineStart(At), E = Text.find('\n', At);
    E = E == std::string::npos ? Text.size() : E + 1;
    Text.insert(B, Text.substr(B, E - B));
    break;
  }
  case 3: { // Deleted line.
    std::size_t B = LineStart(At), E = Text.find('\n', At);
    Text.erase(B, E == std::string::npos ? std::string::npos : E + 1 - B);
    break;
  }
  case 4: // Blank line.
    Text.insert(LineStart(At), "\n");
    break;
  default: // Carriage return, before a line end or anywhere.
    if (std::size_t E = Text.find('\n', At); E != std::string::npos &&
                                             Rng.nextInRange(0, 1))
      Text.insert(E, "\r");
    else
      Text.insert(At, "\r");
    break;
  }
}

/// The events announced by the first \p K chunk headers of \p Text,
/// found by an independent walk over its lines.
std::uint64_t eventsInFirstChunks(const std::string &Text, std::size_t K) {
  std::istringstream In(Text);
  std::string Line;
  std::getline(In, Line); // Header.
  std::uint64_t Sum = 0;
  while (K > 0 && std::getline(In, Line)) {
    std::istringstream Toks(Line);
    std::string Kw;
    std::uint64_t N = 0;
    if (!(Toks >> Kw))
      continue; // Blank line between chunks.
    EXPECT_EQ(Kw, "chunk");
    Toks >> N;
    Sum += N;
    --K;
    for (std::uint64_t I = 0; I < N; ++I)
      std::getline(In, Line);
  }
  EXPECT_EQ(K, 0u) << "fewer chunk headers than delivered chunks";
  return Sum;
}

} // namespace

TEST(ChunkedFuzz, MutatedStreamsReadCleanlyOrFailWholeChunks) {
  // Every mutant of a v1 or v2 stream either reads to onEnd — and its
  // events then re-serialize to a fixed point — or fails with a
  // positioned diagnostic after delivering only whole chunks.
  const std::uint64_t Seed = fuzzSeed(2028);
  SplitMix64 Rng(Seed);
  TimedTrace TT = simTrace();
  TT.Tr.resize(40);
  TT.Ts.resize(40);
  const std::string Bases[] = {serializeTimedTrace(TT), writeV2(TT, 7),
                               writeV2(TT, 1)};
  std::size_t Accepted = 0, Rejected = 0;
  for (int Round = 0; Round < 3000; ++Round) {
    const std::string &Base = Bases[Round % 3];
    std::string Text = Base;
    for (std::uint64_t M = Rng.nextInRange(1, 3); M > 0; --M)
      mutate(Text, Rng);
    const std::string Where = "round " + std::to_string(Round) +
                              "; replay: RPROSA_FUZZ_SEED=" +
                              std::to_string(Seed);

    std::istringstream In(Text);
    VectorSink V;
    CheckResult Diags;
    TraceStreamStats Stats;
    const bool Ok = readTraceStream(In, V, &Diags, &Stats);
    ASSERT_EQ(Stats.Events, V.trace().size()) << Where;
    ASSERT_EQ(Ok, V.finished()) << Where;
    ASSERT_EQ(Ok, Stats.SawEnd) << Where;
    if (Ok) {
      ++Accepted;
      const std::string Once = serializeTimedTrace(V.take());
      std::optional<TimedTrace> Again = parseTimedTrace(Once);
      ASSERT_TRUE(Again.has_value()) << Where;
      ASSERT_EQ(serializeTimedTrace(*Again), Once) << Where;
      ASSERT_EQ(expectWellFormed(writeV2(*Again, 5)), Once) << Where;
      continue;
    }
    ++Rejected;
    const std::string Why = Diags.describe();
    const std::string Prefix = "trace parse error at line ";
    const std::size_t P = Why.find(Prefix);
    ASSERT_NE(P, std::string::npos) << Where << ": " << Why;
    const std::size_t LineNo = std::stoull(Why.substr(P + Prefix.size()));
    const std::size_t Lines =
        std::count(Text.begin(), Text.end(), '\n') +
        (!Text.empty() && Text.back() != '\n');
    ASSERT_GE(LineNo, 1u) << Where;
    ASSERT_LE(LineNo, std::max<std::size_t>(Lines, 1)) << Where;
    if (Text.rfind("refinedprosa-trace v2", 0) == 0) {
      ASSERT_EQ(Stats.Events, eventsInFirstChunks(Text, Stats.Chunks))
          << Where << ": a partial chunk reached the sink";
    }
  }
  // Both outcomes must be exercised for the test to mean anything.
  EXPECT_GT(Accepted, 100u);
  EXPECT_GT(Rejected, 100u);
}

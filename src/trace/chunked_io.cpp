//===- trace/chunked_io.cpp -----------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "trace/chunked_io.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

using namespace rprosa;

ChunkedTraceWriter::ChunkedTraceWriter(std::ostream &Out,
                                       std::size_t EventsPerChunk)
    : Out(Out), EventsPerChunk(EventsPerChunk ? EventsPerChunk : 1) {
  Out << "refinedprosa-trace v2\n";
}

void ChunkedTraceWriter::flushChunk() {
  if (Buffered == 0)
    return;
  Out << "chunk " << Buffered << '\n' << Buffer;
  Buffer.clear();
  Buffered = 0;
}

void ChunkedTraceWriter::onMarker(const MarkerEvent &E, Time At) {
  appendMarkerLine(Buffer, At, E);
  ++Buffered;
  ++NumEvents;
  if (Buffered >= EventsPerChunk)
    flushChunk();
}

void ChunkedTraceWriter::onEnd(Time EndTime) {
  flushChunk();
  Out << "end " << EndTime << '\n';
  Out.flush();
  Finished = true;
}

namespace {

struct Reader {
  std::istream &In;
  TraceSink &Sink;
  CheckResult *Diags;
  TraceStreamStats *Stats;
  std::size_t LineNo = 0;
  std::string Line = {}; ///< The current line; one buffer for the read.

  bool fail(const std::string &Why) {
    if (Diags)
      Diags->addFailure("trace parse error at line " +
                        std::to_string(LineNo) + ": " + Why);
    return false;
  }

  /// Next line verbatim (chunk bodies); false at end of stream.
  bool nextLineRaw() {
    if (!std::getline(In, Line))
      return false;
    ++LineNo;
    return true;
  }

  /// Next non-blank line; false at end of stream. Only valid *between*
  /// records: inside a chunk body every line is an event, so blank
  /// lines must be diagnosed, not skipped (nextLineRaw).
  bool nextLine() {
    while (nextLineRaw())
      if (!TraceLineCursor(Line).atEnd())
        return true;
    return false;
  }

  /// Parses the current line as a marker line, diagnosing it if bad.
  bool parseEvent(Time &Ts, MarkerEvent &E) {
    std::string Why;
    return parseMarkerLine(Line, Ts, E, &Why) || fail(Why);
  }

  void deliver(const MarkerEvent &E, Time Ts) {
    Sink.onMarker(E, Ts);
    if (Stats)
      ++Stats->Events;
  }

  bool finish(Time EndTime) {
    if (nextLine())
      return fail("content after the end line");
    if (Stats)
      Stats->SawEnd = true;
    Sink.onEnd(EndTime);
    return true;
  }

  /// Reads the header line and then the records of a v1 file, or of a
  /// v2 file when \p AcceptV2.
  bool run(bool AcceptV2) {
    LineNo = 1;
    if (!std::getline(In, Line))
      return fail("missing or unknown header");
    std::string_view Header = Line;
    if (!Header.empty() && Header.back() == '\r')
      Header.remove_suffix(1);
    const bool Chunked = AcceptV2 && Header == "refinedprosa-trace v2";
    if (!Chunked && Header != "refinedprosa-trace v1")
      return fail("missing or unknown header");

    // Parsed-but-undelivered events of the chunk in flight: delivery
    // happens only once the whole chunk parsed (no partial chunks).
    std::vector<std::pair<MarkerEvent, Time>> Chunk;
    while (nextLine()) {
      TraceLineCursor T(Line);
      const std::string_view First = T.next();
      if (First == "end") {
        std::optional<std::uint64_t> End = T.nextU64();
        if (!End)
          return fail("malformed end time");
        return finish(*End);
      }
      if (!Chunked) {
        Time Ts = 0;
        MarkerEvent E;
        if (!parseEvent(Ts, E))
          return false;
        deliver(E, Ts);
        continue;
      }
      if (First != "chunk")
        return fail("expected a chunk or end line, got '" +
                    std::string(First) + "'");
      std::optional<std::uint64_t> Count = T.nextU64();
      if (!Count)
        return fail("malformed chunk header");
      if (*Count == 0)
        return fail("chunk header announces zero events (the writer "
                    "never emits empty chunks; torn or corrupted "
                    "header?)");

      // Reserve at most a default-sized chunk: a corrupted count must
      // not allocate ahead of the lines actually read.
      Chunk.clear();
      Chunk.reserve(static_cast<std::size_t>(
          std::min<std::uint64_t>(*Count, DefaultEventsPerChunk)));
      for (std::uint64_t I = 0; I < *Count; ++I) {
        // Chunk bodies are read verbatim: a blank line here is a torn
        // write blanking an event, and silently skipping it would
        // misattribute the damage to the next line's parse.
        if (!nextLineRaw())
          return fail("truncated chunk (expected " +
                      std::to_string(*Count) + " events, got " +
                      std::to_string(I) + ")");
        if (TraceLineCursor(Line).atEnd())
          return fail("blank line inside a chunk body (event " +
                      std::to_string(I + 1) + " of " +
                      std::to_string(*Count) + "; torn write?)");
        auto &[E, Ts] = Chunk.emplace_back();
        if (!parseEvent(Ts, E))
          return false;
      }
      for (const auto &[E, Ts] : Chunk)
        deliver(E, Ts);
      if (Stats)
        ++Stats->Chunks;
    }
    return fail("missing end line");
  }
};

} // namespace

bool rprosa::readTraceStream(std::istream &In, TraceSink &Sink,
                             CheckResult *Diags, TraceStreamStats *Stats) {
  return Reader{In, Sink, Diags, Stats}.run(/*AcceptV2=*/true);
}

std::optional<TimedTrace> rprosa::parseTimedTrace(const std::string &Text,
                                                  CheckResult *Diags) {
  std::istringstream In(Text);
  VectorSink V;
  if (!Reader{In, V, Diags, nullptr}.run(/*AcceptV2=*/false))
    return std::nullopt;
  return V.take();
}

void rprosa::writeTraceStream(std::ostream &Out, const TimedTrace &TT,
                              std::size_t EventsPerChunk) {
  ChunkedTraceWriter W(Out, EventsPerChunk);
  replayTimedTrace(TT, W);
}

std::optional<TimedTrace> rprosa::readTimedTrace(std::istream &In,
                                                 CheckResult *Diags) {
  VectorSink V;
  if (!readTraceStream(In, V, Diags))
    return std::nullopt;
  return V.take();
}

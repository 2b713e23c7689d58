//===- trace/serialize.h - Timed-trace text serialization -----------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A line-oriented text format for timed traces, so runs can be stored,
/// diffed, and re-checked offline (see examples/trace_inspector.cpp).
///
///   refinedprosa-trace v1
///   <ts> ReadS
///   <ts> ReadE <sock> ok <jobid> <msgid> <task> <readat>
///   <ts> ReadE <sock> fail
///   <ts> Selection
///   <ts> Dispatch <jobid> <msgid> <task> <readat> <sock>
///   <ts> Execution ...            (same fields as Dispatch)
///   <ts> Completion ...
///   <ts> Idling
///   end <EndTime>
///
/// serialize/parse round-trip exactly; parse returns diagnostics for
/// malformed input instead of crashing (numeric fields that do not fit
/// in 64 bits included). Tokens are separated by any run of C-locale
/// whitespace (space, \t, \v, \f, \r), so CRLF files read like LF
/// ones; tokens after the last field a line needs are ignored.
///
/// The per-line helpers (appendMarkerLine/parseMarkerLine) and the
/// tokenizer (TraceLineCursor) are shared with the chunked stream
/// format (trace/chunked_io.h), which groups the same marker lines into
/// bounded chunks for multi-GB replay.
///
//===----------------------------------------------------------------------===//

#ifndef RPROSA_TRACE_SERIALIZE_H
#define RPROSA_TRACE_SERIALIZE_H

#include "trace/trace.h"

#include "support/check.h"

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace rprosa {

/// Renders \p TT in the v1 text format.
std::string serializeTimedTrace(const TimedTrace &TT);

/// Parses the v1 text format; nullopt on malformed input, with the
/// reason appended to \p Diags when non-null. A batch adapter: the v1
/// path of readTraceStream (trace/chunked_io.h) into a VectorSink,
/// behind a header check that accepts v1 only.
std::optional<TimedTrace> parseTimedTrace(const std::string &Text,
                                          CheckResult *Diags = nullptr);

/// Appends one `<ts> <marker...>` line (with trailing newline) to
/// \p Out.
void appendMarkerLine(std::string &Out, Time Ts, const MarkerEvent &E);

/// Parses one marker line into (\p Ts, \p E). Returns false on
/// malformed input with the reason (sans line number) in \p Why.
bool parseMarkerLine(std::string_view Line, Time &Ts, MarkerEvent &E,
                     std::string *Why = nullptr);

/// The one tokenizer of both trace formats (marker lines, chunk
/// headers, end lines): a cursor over the whitespace-separated tokens
/// of one line, handing out views into it, so reading a line allocates
/// nothing.
class TraceLineCursor {
public:
  explicit TraceLineCursor(std::string_view Line)
      : Pos(Line.data()), End(Line.data() + Line.size()) {}

  /// True iff nothing but whitespace is left on the line.
  bool atEnd() {
    skipSpace();
    return Pos == End;
  }

  /// The next token; empty at the end of the line.
  std::string_view next() {
    skipSpace();
    const char *B = Pos;
    while (Pos != End && !isSpace(*Pos))
      ++Pos;
    return {B, static_cast<std::size_t>(Pos - B)};
  }

  /// The next token as a decimal u64: digits only (no sign), nullopt
  /// when the token is missing, holds anything else, or exceeds
  /// 2^64 - 1.
  std::optional<std::uint64_t> nextU64() {
    skipSpace();
    std::uint64_t V = 0;
    auto [P, Ec] = std::from_chars(Pos, End, V);
    if (Ec != std::errc() || (P != End && !isSpace(*P)))
      return std::nullopt;
    Pos = P;
    return V;
  }

private:
  /// Space, \t, \n, \v, \f and \r: std::isspace in the C locale.
  static bool isSpace(char C) {
    return C == ' ' || (C >= '\t' && C <= '\r');
  }

  void skipSpace() {
    while (Pos != End && isSpace(*Pos))
      ++Pos;
  }

  const char *Pos;
  const char *End;
};

} // namespace rprosa

#endif // RPROSA_TRACE_SERIALIZE_H

//===- trace/serialize.cpp ------------------------------------------------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "trace/serialize.h"

using namespace rprosa;

/// Appends the decimal digits of \p V to \p Out in place.
static void appendU64(std::string &Out, std::uint64_t V) {
  const std::size_t At = Out.size();
  Out.resize(At + 20); // The digits of 2^64 - 1.
  char *Last = std::to_chars(Out.data() + At, Out.data() + Out.size(), V).ptr;
  Out.resize(static_cast<std::size_t>(Last - Out.data()));
}

static void appendJobFields(std::string &Out, const Job &J) {
  for (std::uint64_t V : {J.Id, J.Msg, std::uint64_t(J.Task), J.ReadAt}) {
    Out += ' ';
    appendU64(Out, V);
  }
}

void rprosa::appendMarkerLine(std::string &Out, Time Ts,
                              const MarkerEvent &E) {
  appendU64(Out, Ts);
  Out += ' ';
  switch (E.Kind) {
  case MarkerKind::ReadS:
    Out += "ReadS";
    break;
  case MarkerKind::ReadE:
    Out += "ReadE ";
    appendU64(Out, E.Socket);
    if (E.J) {
      Out += " ok";
      appendJobFields(Out, *E.J);
    } else {
      Out += " fail";
    }
    break;
  case MarkerKind::Selection:
    Out += "Selection";
    break;
  case MarkerKind::Dispatch:
  case MarkerKind::Execution:
  case MarkerKind::Completion: {
    Out += E.Kind == MarkerKind::Dispatch
               ? "Dispatch"
               : (E.Kind == MarkerKind::Execution ? "Execution"
                                                  : "Completion");
    if (E.J) {
      appendJobFields(Out, *E.J);
      Out += ' ';
      appendU64(Out, E.J->Socket);
    }
    break;
  }
  case MarkerKind::Idling:
    Out += "Idling";
    break;
  }
  Out += '\n';
}

std::string rprosa::serializeTimedTrace(const TimedTrace &TT) {
  std::string Out = "refinedprosa-trace v1\n";
  for (std::size_t I = 0; I < TT.size(); ++I)
    appendMarkerLine(Out, TT.Ts[I], TT.Tr[I]);
  Out += "end ";
  appendU64(Out, TT.EndTime);
  Out += '\n';
  return Out;
}

namespace {

std::optional<Job> parseJobFields(TraceLineCursor &T, bool WithSocket) {
  Job J;
  auto Id = T.nextU64();
  auto Msg = T.nextU64();
  auto Task = T.nextU64();
  auto ReadAt = T.nextU64();
  if (!Id || !Msg || !Task || !ReadAt)
    return std::nullopt;
  J.Id = *Id;
  J.Msg = *Msg;
  J.Task = static_cast<TaskId>(*Task);
  J.ReadAt = *ReadAt;
  if (WithSocket) {
    auto Sock = T.nextU64();
    if (!Sock)
      return std::nullopt;
    J.Socket = static_cast<SocketId>(*Sock);
  }
  return J;
}

bool lineFail(std::string *Why, std::string Message) {
  if (Why)
    *Why = std::move(Message);
  return false;
}

} // namespace

bool rprosa::parseMarkerLine(std::string_view Line, Time &Ts,
                             MarkerEvent &E, std::string *Why) {
  TraceLineCursor T(Line);
  std::optional<std::uint64_t> Stamp = T.nextU64();
  if (!Stamp)
    return lineFail(Why, "expected a timestamp");
  Ts = *Stamp;

  const std::string_view Kind = T.next();
  if (Kind.empty())
    return lineFail(Why, "missing marker kind");

  if (Kind == "ReadS") {
    E = MarkerEvent::readS();
  } else if (Kind == "ReadE") {
    auto Sock = T.nextU64();
    const std::string_view Status = T.next();
    if (!Sock || Status.empty())
      return lineFail(Why, "malformed ReadE");
    if (Status == "ok") {
      std::optional<Job> J = parseJobFields(T, /*WithSocket=*/false);
      if (!J)
        return lineFail(Why, "malformed ReadE job fields");
      J->Socket = static_cast<SocketId>(*Sock);
      E = MarkerEvent::readE(static_cast<SocketId>(*Sock), *J);
    } else if (Status == "fail") {
      E = MarkerEvent::readE(static_cast<SocketId>(*Sock), std::nullopt);
    } else {
      return lineFail(Why, "ReadE status must be ok/fail");
    }
  } else if (Kind == "Selection") {
    E = MarkerEvent::selection();
  } else if (Kind == "Idling") {
    E = MarkerEvent::idling();
  } else if (Kind == "Dispatch" || Kind == "Execution" ||
             Kind == "Completion") {
    std::optional<Job> J = parseJobFields(T, /*WithSocket=*/true);
    if (!J)
      return lineFail(Why, "malformed " + std::string(Kind) + " job fields");
    if (Kind == "Dispatch")
      E = MarkerEvent::dispatch(*J);
    else if (Kind == "Execution")
      E = MarkerEvent::execution(*J);
    else
      E = MarkerEvent::completion(*J);
  } else {
    return lineFail(Why, "unknown marker kind '" + std::string(Kind) + "'");
  }
  return true;
}

//===- tests/arrival_sequence_test.cpp - Arrival-sequence unit tests ------===//
//
// Part of RefinedProsa-CPP. MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/arrival_sequence.h"

#include "sim/workload.h"
#include "support/rng.h"

#include "test_util.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

using namespace rprosa;
using namespace rprosa::testutil;

namespace {

TaskSet onePeriodicTask(Duration Period) {
  TaskSet TS;
  addPeriodicTask(TS, "t", 10, 1, Period);
  return TS;
}

/// One curve of each shape the push rule meets: periodic, source
/// jitter, leaky bucket, a sum, a minimum, and a staircase that admits
/// only three arrivals ever (so the rule must answer TimeInfinity).
std::vector<ArrivalCurvePtr> mixedCurves(SplitMix64 &Rng) {
  auto Period = [&] { return Duration(Rng.nextInRange(5, 400)); };
  std::vector<ArrivalCurvePtr> C;
  C.push_back(std::make_shared<PeriodicCurve>(Period()));
  C.push_back(std::make_shared<PeriodicJitterCurve>(
      Period(), Duration(Rng.nextInRange(0, 300))));
  C.push_back(std::make_shared<LeakyBucketCurve>(Rng.nextInRange(1, 5),
                                                 Period()));
  C.push_back(std::make_shared<SumCurve>(std::vector<ArrivalCurvePtr>{
      std::make_shared<PeriodicCurve>(Period()),
      std::make_shared<LeakyBucketCurve>(Rng.nextInRange(1, 3),
                                         Period())}));
  C.push_back(std::make_shared<MinCurve>(
      std::make_shared<LeakyBucketCurve>(Rng.nextInRange(2, 6), Period()),
      std::make_shared<PeriodicJitterCurve>(Period(),
                                            Duration(Rng.nextInRange(0, 50)))));
  C.push_back(std::make_shared<StaircaseCurve>(
      std::vector<StaircaseCurve::Step>{{1, 2}, {Period(), 3}}));
  return C;
}

/// The push rule without memoization: one minWindowAdmitting search per
/// earlier arrival per push. The reference the memoized rule must match.
Time referenceEarliest(const ArrivalCurve &Curve,
                       const std::vector<Time> &Prev, Time Proposed) {
  Time Earliest = Proposed;
  for (std::size_t J = 0; J < Prev.size(); ++J) {
    Duration NeedLen = minWindowAdmitting(Curve, Prev.size() - J + 1);
    if (NeedLen == TimeInfinity)
      return TimeInfinity;
    Earliest = std::max(Earliest, satAdd(Prev[J], NeedLen - 1));
  }
  return Earliest;
}

/// A digest of every arrival's (time, socket, message id, task).
std::uint64_t digest(const ArrivalSequence &Arr) {
  std::uint64_t H = 1469598103934665603ull;
  for (const Arrival &A : Arr.arrivals())
    for (std::uint64_t V : {A.At, std::uint64_t(A.Socket), A.Msg.Id,
                            std::uint64_t(A.Msg.Task)})
      H = (H ^ V) * 1099511628211ull;
  return H;
}

} // namespace

TEST(ArrivalSequence, SortsByTime) {
  ArrivalSequence Arr(2);
  Arr.addArrival(50, 1, /*Task=*/0);
  Arr.addArrival(10, 0, /*Task=*/0);
  Arr.addArrival(30, 0, /*Task=*/0);
  const auto &A = Arr.arrivals();
  ASSERT_EQ(A.size(), 3u);
  EXPECT_EQ(A[0].At, 10u);
  EXPECT_EQ(A[1].At, 30u);
  EXPECT_EQ(A[2].At, 50u);
}

TEST(ArrivalSequence, PerSocketView) {
  ArrivalSequence Arr(2);
  Arr.addArrival(10, 0, /*Task=*/0);
  Arr.addArrival(20, 1, /*Task=*/0);
  Arr.addArrival(30, 0, /*Task=*/0);
  EXPECT_EQ(Arr.arrivalsOn(0).size(), 2u);
  EXPECT_EQ(Arr.arrivalsOn(1).size(), 1u);
}

TEST(ArrivalSequence, FindMsg) {
  ArrivalSequence Arr(1);
  MsgId M = Arr.addArrival(42, 0, /*Task=*/0);
  auto Found = Arr.findMsg(M);
  ASSERT_TRUE(Found.has_value());
  EXPECT_EQ(Found->At, 42u);
  EXPECT_FALSE(Arr.findMsg(M + 1000).has_value());
}

TEST(ArrivalSequence, CountInWindowIsHalfOpen) {
  ArrivalSequence Arr(1);
  Arr.addArrival(10, 0, /*Task=*/0);
  Arr.addArrival(20, 0, /*Task=*/0);
  EXPECT_EQ(Arr.countInWindow(0, 10, 20), 1u);
  EXPECT_EQ(Arr.countInWindow(0, 10, 21), 2u);
  EXPECT_EQ(Arr.countInWindow(0, 11, 20), 0u);
}

TEST(ArrivalSequence, RespectsCurvesAcceptsCompliant) {
  TaskSet TS = onePeriodicTask(100);
  ArrivalSequence Arr(1);
  for (Time T = 0; T < 1000; T += 100)
    Arr.addArrival(T, 0, 0);
  EXPECT_TRUE(Arr.respectsCurves(TS).passed());
}

TEST(ArrivalSequence, RespectsCurvesRejectsTooDense) {
  TaskSet TS = onePeriodicTask(100);
  ArrivalSequence Arr(1);
  Arr.addArrival(0, 0, 0);
  Arr.addArrival(50, 0, 0); // Only 50 apart: violates the period.
  EXPECT_FALSE(Arr.respectsCurves(TS).passed());
}

TEST(ArrivalSequence, RespectsCurvesBoundaryExactPeriod) {
  TaskSet TS = onePeriodicTask(100);
  ArrivalSequence Arr(1);
  Arr.addArrival(0, 0, 0);
  Arr.addArrival(100, 0, 0); // Window length 101 admits ceil(101/100)=2.
  EXPECT_TRUE(Arr.respectsCurves(TS).passed());
  Arr.addArrival(199, 0, 0); // 3 arrivals in window of length 200: only 2.
  EXPECT_FALSE(Arr.respectsCurves(TS).passed());
}

TEST(ArrivalSequence, RespectsCurvesRejectsUnknownTask) {
  TaskSet TS = onePeriodicTask(100);
  ArrivalSequence Arr(1);
  Arr.addArrival(0, 0, /*Task=*/7);
  EXPECT_FALSE(Arr.respectsCurves(TS).passed());
}

TEST(ArrivalSequence, BurstCurveAllowsSimultaneousArrivals) {
  TaskSet TS;
  addBurstyTask(TS, "b", 10, 1, /*Burst=*/3, /*Rate=*/100);
  ArrivalSequence Arr(1);
  Arr.addArrival(5, 0, 0);
  Arr.addArrival(5, 0, 0);
  Arr.addArrival(5, 0, 0);
  EXPECT_TRUE(Arr.respectsCurves(TS).passed());
  Arr.addArrival(5, 0, 0); // Fourth in the same instant exceeds burst.
  EXPECT_FALSE(Arr.respectsCurves(TS).passed());
}

TEST(ArrivalSequence, UniqueMsgIdsDetectsForgery) {
  ArrivalSequence Arr(1);
  Message M;
  M.Id = 7;
  M.Task = 0;
  Arr.addArrival(1, 0, M);
  EXPECT_TRUE(Arr.uniqueMsgIds().passed());
  Arr.addArrival(2, 0, M); // Same id again.
  EXPECT_FALSE(Arr.uniqueMsgIds().passed());
}

TEST(ArrivalSequence, LastArrivalTime) {
  ArrivalSequence Arr(1);
  EXPECT_EQ(Arr.lastArrivalTime(), 0u);
  Arr.addArrival(10, 0, 0);
  Arr.addArrival(500, 0, 0);
  EXPECT_EQ(Arr.lastArrivalTime(), 500u);
}

TEST(CompliantArrivals, MemoizedRuleMatchesTheReferenceLoop) {
  // Seeded curves and seeded ascending prefixes, pushed one proposal at
  // a time: every answer of the memoized rule equals the reference
  // loop's, TimeInfinity included.
  const std::uint64_t Seed = fuzzSeed(2027);
  SplitMix64 Rng(Seed);
  for (int Round = 0; Round < 20; ++Round) {
    for (const ArrivalCurvePtr &C : mixedCurves(Rng)) {
      CompliantArrivals Rule(*C);
      std::vector<Time> Prev;
      for (int Push = 0; Push < 60; ++Push) {
        Time Last = Prev.empty() ? 0 : Prev.back();
        Time Proposed = satAdd(Last, Rng.nextInRange(0, 300));
        Time Want = referenceEarliest(*C, Prev, Proposed);
        ASSERT_EQ(Rule.earliest(Prev, Proposed), Want)
            << C->describe() << " after " << Prev.size()
            << " arrivals; replay: RPROSA_FUZZ_SEED=" << Seed;
        if (Want == TimeInfinity)
          break;
        // Sometimes commit a later instant than the earliest one.
        Prev.push_back(satAdd(Want, Rng.nextInRange(0, 1) *
                                        Rng.nextInRange(0, 200)));
      }
    }
  }
}

TEST(ArrivalSequence, GeneratedWorkloadsArePinned) {
  // The three generator styles over every curve shape, pinned by
  // digest: the push rule's memoized window lengths must not change a
  // single generated arrival.
  SplitMix64 Rng(7);
  TaskSet TS;
  for (const ArrivalCurvePtr &C : mixedCurves(Rng))
    TS.addTask("t" + std::to_string(TS.size()), 10, 1, C);
  const std::pair<WorkloadStyle, std::uint64_t> Pins[] = {
      {WorkloadStyle::GreedyDense, 3957732044515705529ull},
      {WorkloadStyle::Random, 7382481933259409232ull},
      {WorkloadStyle::Sparse, 14275323755701483077ull}};
  for (const auto &[Style, Want] : Pins) {
    WorkloadSpec Spec;
    Spec.NumSockets = 2;
    Spec.Horizon = 20000;
    Spec.Seed = 11;
    Spec.Style = Style;
    ArrivalSequence Arr = generateWorkload(TS, Spec);
    EXPECT_TRUE(Arr.respectsCurves(TS).passed());
    EXPECT_EQ(digest(Arr), Want) << int(Style);
    EXPECT_EQ(Arr.countInWindow(5, 0, Spec.Horizon), 3u)
        << "the staircase task admits three arrivals ever";
  }
}

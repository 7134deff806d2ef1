//===----------------------------------------------------------------------===//
//
// Part of limecc, a C++ reproduction of the Lime GPU compiler (PLDI 2012).
// Distributed under the MIT license; see LICENSE for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests of the layer ledger's own arithmetic: tail percentile
/// choice, geomean of per-kernel medians, span self time, seeded
/// request lists, and failure accounting.
///
//===----------------------------------------------------------------------===//

#include "Ledger.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

using namespace ledger;
using lime::ExecResult;
using lime::RtArray;
using lime::RtValue;

namespace {

std::vector<double> oneTo(size_t N) {
  std::vector<double> V;
  for (size_t I = 1; I <= N; ++I)
    V.push_back(static_cast<double>(I));
  return V;
}

TEST(LedgerTail, PicksHighestPercentileWithTenBeyond) {
  // 1000 samples: p99 (rank 990) has 10 beyond; any higher percentile
  // has rank 991 or more, so fewer than 10 beyond.
  TailStat T = tailPercentile(oneTo(1000));
  EXPECT_EQ(T.Percentile, 99.0);
  EXPECT_EQ(T.Value, 990.0);
  EXPECT_EQ(T.Beyond, 10u);
  EXPECT_EQ(T.Samples, 1000u);

  // 495 samples (three cold_kernels passes): rank 485 is p97.98, and
  // the nearest rank of that percentile is 485 again.
  T = tailPercentile(oneTo(495));
  EXPECT_EQ(T.Value, 485.0);
  EXPECT_EQ(T.Beyond, 10u);
  EXPECT_NEAR(T.Percentile, 97.9798, 1e-4);
  EXPECT_EQ(std::ceil(T.Percentile / 100.0 * 495.0 - 1e-9), 485.0);

  // 11000 samples: rank 10990, p99.909.
  T = tailPercentile(oneTo(11000));
  EXPECT_EQ(T.Value, 10990.0);
  EXPECT_EQ(T.Beyond, 10u);
  EXPECT_NEAR(T.Percentile, 99.9091, 1e-4);

  // Order of the input does not matter; ties count as samples.
  std::vector<double> Rev = oneTo(1000);
  std::reverse(Rev.begin(), Rev.end());
  EXPECT_EQ(tailPercentile(Rev).Value, 990.0);
  std::vector<double> Flat(50, 3.0);
  EXPECT_EQ(tailPercentile(Flat).Value, 3.0);
  EXPECT_EQ(tailPercentile(Flat).Percentile, 80.0); // rank 40, 10 beyond
}

TEST(LedgerTail, FallsBackToMedianWhenTooFewSamples) {
  // 15 samples: rank 5 would leave 10 beyond, but it is below the
  // median (rank 8).
  TailStat T = tailPercentile(oneTo(15));
  EXPECT_EQ(T.Value, 8.0);
  EXPECT_EQ(T.Beyond, 7u);
  EXPECT_NEAR(T.Percentile, 100.0 * 8.0 / 15.0, 1e-9);
  EXPECT_EQ(tailPercentile(oneTo(5)).Value, 3.0);
  EXPECT_EQ(tailPercentile({}).Samples, 0u);
}

TEST(LedgerGeomean, WeighsEveryKernelsMedianEqually) {
  std::map<std::string, std::vector<double>> ByKernel = {
      {"a", {1.0, 100.0, 2.0}}, // median 2
      {"b", {8.0}},             // median 8
      {"c", {3.0, 5.0}},        // median 4
  };
  EXPECT_NEAR(geomeanOfMedians(ByKernel), std::cbrt(2.0 * 8.0 * 4.0), 1e-12);
  // One slow kernel moves the geomean by its own factor only.
  ByKernel["b"] = {800.0};
  EXPECT_NEAR(geomeanOfMedians(ByKernel), std::cbrt(2.0 * 800.0 * 4.0), 1e-9);
  EXPECT_EQ(geomeanOfMedians({}), 0.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(LedgerSpans, SelfTimeSubtractsNestedChildrenOnce) {
  // Times in us, self times come back in ms. request [0,100) has
  // children submit [10,40) and get [30,90), which overlap; submit has
  // its own child compile [15,25).
  std::vector<Span> S(4);
  S[0] = {"request", 0, 100, -1, 7, 0};
  S[1] = {"submit", 10, 40, 0, 7, 0};
  S[2] = {"get", 30, 90, 0, 7, 0};
  S[3] = {"compile", 15, 25, 1, 7, 0};
  std::map<std::string, double> Self = selfTimeByName(S);
  EXPECT_DOUBLE_EQ(Self["request"], 0.020); // children cover [10,90)
  EXPECT_DOUBLE_EQ(Self["submit"], 0.020);  // grandchild not subtracted twice
  EXPECT_DOUBLE_EQ(Self["get"], 0.060);
  EXPECT_DOUBLE_EQ(Self["compile"], 0.010);

  // A child poking outside its parent only counts inside it.
  S[2].EndUs = 150;
  EXPECT_DOUBLE_EQ(selfTimeByName(S)["request"], 0.010);

  // Spans of one name add up.
  S.push_back({"get", 200, 250, -1, 8, 0});
  EXPECT_DOUBLE_EQ(selfTimeByName(S)["get"], 0.170);
}

TEST(LedgerSpans, TracerNestsPerThreadAndHonorsExplicitParents) {
  Tracer T(true);
  int64_t Req;
  {
    Timed Outer(T, "outer", 1);
    { Timed Inner(T, "inner", 1); }
    Req = T.begin("request", 2, Tracer::Innermost, /*Nest=*/false);
    { Timed Call(T, "call", 2, Req); }
    { Timed After(T, "after", 1); }
    T.end(Req);
  }
  std::vector<Span> S = T.spans();
  ASSERT_EQ(S.size(), 5u);
  EXPECT_EQ(S[1].Parent, 0);   // inner under outer
  EXPECT_EQ(S[2].Parent, 0);   // the request opened inside outer
  EXPECT_EQ(S[3].Parent, Req); // call under its request
  EXPECT_EQ(S[4].Parent, 0);   // an un-nested span never becomes a parent
  for (const Span &Sp : S)
    EXPECT_GE(Sp.EndUs, Sp.StartUs);

  Tracer Off(false);
  Timed Quiet(Off, "x");
  EXPECT_GE(Quiet.stop(), 0.0);
  EXPECT_TRUE(Off.spans().empty());
}

TEST(LedgerRequests, SameSeedSameList) {
  EXPECT_EQ(passOrder(42, 168, 2), passOrder(42, 168, 2));
  EXPECT_NE(passOrder(42, 168, 2), passOrder(43, 168, 2));
  std::vector<uint32_t> P = passOrder(7, 168, 2);
  ASSERT_EQ(P.size(), 336u);
  // Each pass is a permutation, and the passes differ.
  std::set<uint32_t> First(P.begin(), P.begin() + 168);
  EXPECT_EQ(First.size(), 168u);
  EXPECT_FALSE(std::equal(P.begin(), P.begin() + 168, P.begin() + 168));

  EXPECT_EQ(mixSchedule(9, 7, 56, 50, 5), mixSchedule(9, 7, 56, 50, 5));
  EXPECT_NE(mixSchedule(9, 7, 56, 50, 5), mixSchedule(10, 7, 56, 50, 5));
}

TEST(LedgerRequests, MixScheduleShape) {
  std::vector<MixRequest> L = mixSchedule(3, 7, 56, 50, 5);
  ASSERT_EQ(L.size(), 2800u);
  std::set<uint32_t> Misses;
  size_t PerClient[2] = {0, 0};
  for (size_t B = 0; B != 56; ++B) {
    size_t InBlock = 0;
    for (size_t I = B * 50; I != (B + 1) * 50; ++I)
      InBlock += L[I].Miss;
    EXPECT_EQ(InBlock, 1u) << "block " << B;
  }
  for (const MixRequest &R : L) {
    ++PerClient[R.Client];
    if (R.Miss) {
      EXPECT_TRUE(Misses.insert(R.Kernel).second) << "miss drawn twice";
      continue;
    }
    EXPECT_LT(R.Kernel, 7u);
    // Client c only uses its own variants.
    EXPECT_GE(R.Variant, R.Client * 5u);
    EXPECT_LT(R.Variant, R.Client * 5u + 5u);
  }
  EXPECT_EQ(Misses.size(), 56u);
  EXPECT_EQ(PerClient[0], 1400u);
  EXPECT_EQ(PerClient[1], 1400u);
  // Within one client, consecutive hits on a kernel cycle through all
  // five variants before repeating one.
  std::map<uint32_t, std::vector<uint32_t>> Seq;
  for (const MixRequest &R : L)
    if (!R.Miss && R.Client == 0)
      Seq[R.Kernel].push_back(R.Variant);
  for (const auto &[K, V] : Seq)
    for (size_t I = 0; I + 1 < V.size(); ++I)
      EXPECT_EQ(V[I + 1], (V[I] + 1) % 5) << "kernel " << K;
}

RtValue floats(std::initializer_list<float> Vs) {
  auto A = std::make_shared<RtArray>();
  for (float V : Vs)
    A->Elems.push_back(RtValue::makeFloat(V));
  return RtValue::makeArray(std::move(A));
}

TEST(LedgerOracle, PerturbedResultLandsInFailRatio) {
  RtValue Ref = floats({1.0f, 2.0f, 3.0f});
  Outcomes O;
  ExecResult Good;
  Good.Value = floats({1.0f, 2.0f, 3.0005f}); // within 1e-3 relative
  EXPECT_TRUE(O.record(Good, false, Ref, 1e-3));

  ExecResult Bad;
  Bad.Value = floats({1.0f, 2.1f, 3.0f});
  EXPECT_FALSE(O.record(Bad, false, Ref, 1e-3));

  ExecResult Short;
  Short.Value = floats({1.0f, 2.0f});
  EXPECT_FALSE(O.record(Short, false, Ref, 1e-3));

  ExecResult Trap;
  Trap.Trapped = true;
  EXPECT_FALSE(O.record(Trap, false, Ref, 1e-3));
  EXPECT_FALSE(O.record(Trap, true, Ref, 1e-3));

  EXPECT_EQ(O.Attempted, 5u);
  EXPECT_EQ(O.Mismatches, 2u);
  EXPECT_EQ(O.Traps, 1u);
  EXPECT_EQ(O.Rejections, 1u);
  EXPECT_EQ(O.failed(), 4u);
  EXPECT_DOUBLE_EQ(O.failRatio(), 0.8);

  // Integers compare exactly.
  ExecResult Int;
  Int.Value = RtValue::makeInt(5);
  EXPECT_FALSE(O.record(Int, false, RtValue::makeInt(6), 1e-3));
  EXPECT_TRUE(resultsMatch(RtValue::makeInt(6), RtValue::makeInt(6), 0.0));
}

} // namespace

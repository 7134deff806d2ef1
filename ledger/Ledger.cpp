//===----------------------------------------------------------------------===//
//
// Part of limecc, a C++ reproduction of the Lime GPU compiler (PLDI 2012).
// Distributed under the MIT license; see LICENSE for details.
//
//===----------------------------------------------------------------------===//

#include "Ledger.h"

#include "support/Random.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>

using namespace ledger;

double ledger::median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  size_t Mid = V.size() / 2;
  std::nth_element(V.begin(), V.begin() + Mid, V.end());
  double Hi = V[Mid];
  if (V.size() % 2)
    return Hi;
  double Lo = *std::max_element(V.begin(), V.begin() + Mid);
  return (Lo + Hi) / 2.0;
}

TailStat ledger::tailPercentile(std::vector<double> V, size_t MinBeyond) {
  TailStat T;
  T.Samples = V.size();
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  // Percentile P has nearest rank K = ceil(P/100 * N) (1-based), with
  // N - K samples beyond it. P = 100 K / N is the highest percentile of
  // rank K, so rank N - MinBeyond gives the answer; the median is the
  // floor.
  size_t K = (N + 1) / 2;
  if (N > MinBeyond)
    K = std::max(K, N - MinBeyond);
  T.Percentile = 100.0 * static_cast<double>(K) / static_cast<double>(N);
  T.Value = V[K - 1];
  T.Beyond = N - K;
  return T;
}

double ledger::geomeanOfMedians(
    const std::map<std::string, std::vector<double>> &ByKernel) {
  if (ByKernel.empty())
    return 0.0;
  double LogSum = 0.0;
  for (const auto &[Kernel, Samples] : ByKernel)
    LogSum += std::log(median(Samples));
  return std::exp(LogSum / static_cast<double>(ByKernel.size()));
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

namespace {

double coveredUs(std::vector<std::pair<double, double>> Iv) {
  std::sort(Iv.begin(), Iv.end());
  double Sum = 0.0, Lo = 0.0, Hi = 0.0;
  bool Open = false;
  for (const auto &[A, B] : Iv) {
    if (Open && A <= Hi) {
      Hi = std::max(Hi, B);
      continue;
    }
    if (Open)
      Sum += Hi - Lo;
    Lo = A;
    Hi = B;
    Open = true;
  }
  if (Open)
    Sum += Hi - Lo;
  return Sum;
}

uint32_t threadNumber() {
  static std::atomic<uint32_t> Next{0};
  thread_local uint32_t Mine = Next++;
  return Mine;
}

/// Open spans of the calling thread, innermost last.
thread_local std::vector<int64_t> OpenSpans;

} // namespace

std::map<std::string, double>
ledger::selfTimeByName(const std::vector<Span> &Spans) {
  // Each child's interval, clipped to its parent's, bucketed by parent.
  std::vector<std::vector<std::pair<double, double>>> Kids(Spans.size());
  for (const Span &C : Spans) {
    if (C.Parent < 0 || static_cast<size_t>(C.Parent) >= Spans.size())
      continue;
    const Span &P = Spans[static_cast<size_t>(C.Parent)];
    double A = std::max(C.StartUs, P.StartUs);
    double B = std::min(C.EndUs, P.EndUs);
    if (B > A)
      Kids[static_cast<size_t>(C.Parent)].emplace_back(A, B);
  }
  std::map<std::string, double> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out[S.Name] += ((S.EndUs - S.StartUs) - coveredUs(std::move(Kids[I]))) /
                   1000.0;
  }
  return Out;
}

Tracer::Tracer(bool On) : On(On), Epoch(std::chrono::steady_clock::now()) {}

double Tracer::nowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

int64_t Tracer::begin(std::string Name, uint64_t Request, int64_t Parent,
                      bool Nest) {
  if (!On)
    return -1;
  Span S;
  S.Name = std::move(Name);
  S.Request = Request;
  S.Thread = threadNumber();
  if (Parent == Innermost)
    Parent = OpenSpans.empty() ? -1 : OpenSpans.back();
  S.Parent = Parent;
  S.StartUs = nowUs();
  int64_t Index;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Index = static_cast<int64_t>(Spans.size());
    Spans.push_back(std::move(S));
  }
  if (Nest)
    OpenSpans.push_back(Index);
  return Index;
}

void Tracer::end(int64_t Index) {
  if (Index < 0)
    return;
  double Now = nowUs();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Spans[static_cast<size_t>(Index)].EndUs = Now;
  }
  auto It = std::find(OpenSpans.rbegin(), OpenSpans.rend(), Index);
  if (It != OpenSpans.rend())
    OpenSpans.erase(std::next(It).base());
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Spans;
}

bool Tracer::writeChromeJson(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  std::lock_guard<std::mutex> Lock(Mu);
  Out << "{\"traceEvents\": [\n";
  char Buf[160];
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf),
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                  "\"dur\": %.3f",
                  S.Thread, S.StartUs, S.EndUs - S.StartUs);
    Out << "  {\"name\": \"" << S.Name << "\", " << Buf
        << ", \"args\": {\"span\": " << I << ", \"parent\": " << S.Parent
        << ", \"request\": " << S.Request << "}}"
        << (I + 1 == Spans.size() ? "\n" : ",\n");
  }
  Out << "]}\n";
  return static_cast<bool>(Out);
}

Timed::Timed(Tracer &T, std::string Name, uint64_t Request, int64_t Parent)
    : T(T), Index(T.begin(std::move(Name), Request, Parent)),
      Start(std::chrono::steady_clock::now()) {}

Timed::~Timed() { stop(); }

double Timed::stop() {
  if (Ms < 0.0) {
    Ms = std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
             .count();
    T.end(Index);
  }
  return Ms;
}

//===----------------------------------------------------------------------===//
// Seeded request lists
//===----------------------------------------------------------------------===//

namespace {

/// Separate streams per purpose, so adding a draw to one list never
/// shifts another.
lime::SplitMix64 stream(uint64_t Seed, uint64_t Purpose) {
  lime::SplitMix64 Mix(Seed * 0x9e3779b97f4a7c15ULL + Purpose);
  return lime::SplitMix64(Mix.next());
}

void shuffleInto(lime::SplitMix64 &Rng, std::vector<uint32_t> &V) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[Rng.nextBelow(I)]);
}

} // namespace

std::vector<uint32_t> ledger::seededShuffle(uint64_t Seed, uint32_t N) {
  std::vector<uint32_t> V(N);
  for (uint32_t I = 0; I != N; ++I)
    V[I] = I;
  lime::SplitMix64 Rng = stream(Seed, 1);
  shuffleInto(Rng, V);
  return V;
}

std::vector<uint32_t> ledger::passOrder(uint64_t Seed, uint32_t N,
                                        uint32_t Passes) {
  std::vector<uint32_t> Out;
  Out.reserve(static_cast<size_t>(N) * Passes);
  for (uint32_t P = 0; P != Passes; ++P) {
    std::vector<uint32_t> One = seededShuffle(Seed * 131 + P, N);
    Out.insert(Out.end(), One.begin(), One.end());
  }
  return Out;
}

std::vector<MixRequest> ledger::mixSchedule(uint64_t Seed, uint32_t HotKernels,
                                            uint32_t Misses, uint32_t MissEvery,
                                            uint32_t VariantsPerClient) {
  std::vector<MixRequest> Out;
  if (!HotKernels || !MissEvery || !VariantsPerClient)
    return Out;
  lime::SplitMix64 Slots = stream(Seed, 2);
  lime::SplitMix64 Hots = stream(Seed, 3);
  lime::SplitMix64 Clients = stream(Seed, 4);
  lime::SplitMix64 Starts = stream(Seed, 5);
  std::vector<uint32_t> MissOrder = seededShuffle(Seed ^ 0x5eed, Misses);

  // Per (client, hot kernel): the next variant in that client's cycle.
  std::vector<uint32_t> Cursor(2 * static_cast<size_t>(HotKernels));
  for (uint32_t &C : Cursor)
    C = static_cast<uint32_t>(Starts.nextBelow(VariantsPerClient));

  Out.reserve(static_cast<size_t>(Misses) * MissEvery);
  for (uint32_t B = 0; B != Misses; ++B) {
    uint32_t MissSlot = static_cast<uint32_t>(Slots.nextBelow(MissEvery));
    for (uint32_t I = 0; I != MissEvery; ++I) {
      MixRequest R;
      if (I == MissSlot) {
        R.Miss = true;
        R.Kernel = MissOrder[B];
      } else {
        R.Kernel = static_cast<uint32_t>(Hots.nextBelow(HotKernels));
      }
      Out.push_back(R);
    }
  }
  // Client assignment: one of each consecutive pair to each client.
  for (size_t I = 0; I + 1 < Out.size(); I += 2) {
    uint8_t First = static_cast<uint8_t>(Clients.nextBelow(2));
    Out[I].Client = First;
    Out[I + 1].Client = static_cast<uint8_t>(1 - First);
  }
  if (Out.size() % 2)
    Out.back().Client = static_cast<uint8_t>(Clients.nextBelow(2));
  for (MixRequest &R : Out) {
    if (R.Miss)
      continue;
    uint32_t &C = Cursor[R.Client * static_cast<size_t>(HotKernels) + R.Kernel];
    R.Variant = R.Client * VariantsPerClient + C;
    C = (C + 1) % VariantsPerClient;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Output oracle
//===----------------------------------------------------------------------===//

bool ledger::resultsMatch(const lime::RtValue &Got, const lime::RtValue &Ref,
                          double Tol) {
  if (Got.isArray() != Ref.isArray())
    return false;
  if (!Got.isArray()) {
    if (Got.isInteger() && Ref.isInteger())
      return Got.asIntegral() == Ref.asIntegral();
    if (!Got.isNumeric() || !Ref.isNumeric())
      return false;
    double R = Ref.asNumber();
    return std::fabs(Got.asNumber() - R) <= Tol * (1.0 + std::fabs(R));
  }
  const auto &G = Got.array()->Elems;
  const auto &E = Ref.array()->Elems;
  if (G.size() != E.size())
    return false;
  for (size_t I = 0; I != G.size(); ++I)
    if (!resultsMatch(G[I], E[I], Tol))
      return false;
  return true;
}

double ledger::toleranceFor(const std::string &WorkloadId) {
  return WorkloadId == "series_sp" ? 5e-3 : 1e-3;
}

bool Outcomes::record(const lime::ExecResult &R, bool Rejected,
                      const lime::RtValue &Ref, double Tol) {
  ++Attempted;
  if (R.Trapped) {
    ++(Rejected ? Rejections : Traps);
    return false;
  }
  if (!resultsMatch(R.Value, Ref, Tol)) {
    ++Mismatches;
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
//
// Part of limecc, a C++ reproduction of the Lime GPU compiler (PLDI 2012).
// Distributed under the MIT license; see LICENSE for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The layer ledger's own arithmetic, kept apart from the workloads so
/// it can be unit-tested without compiling a kernel: latency summaries
/// (median, tail percentile, geomean of per-kernel medians), request
/// spans and their self times, the seeded request lists, and the
/// output oracle's failure accounting.
///
//===----------------------------------------------------------------------===//

#ifndef LIMECC_LEDGER_LEDGER_H
#define LIMECC_LEDGER_LEDGER_H

#include "lime/interp/Interp.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ledger {

//===----------------------------------------------------------------------===//
// Latency summaries
//===----------------------------------------------------------------------===//

/// Median of \p V (mean of the middle pair for even sizes); 0 if empty.
double median(std::vector<double> V);

/// One tail summary: the value at Percentile (nearest rank) and how
/// many samples lie beyond that rank.
struct TailStat {
  double Percentile = 0.0;
  double Value = 0.0;
  size_t Beyond = 0;
  size_t Samples = 0;
};

/// The highest percentile whose nearest-rank sample has at least
/// \p MinBeyond samples ranked above it: rank N - MinBeyond of N, as
/// percentile 100 (N - MinBeyond) / N. Where that falls below the
/// median, the median is reported with however many lie beyond it.
TailStat tailPercentile(std::vector<double> V, size_t MinBeyond = 10);

/// Geometric mean, over kernels, of each kernel's median sample, so
/// every kernel weighs the same however slow it is. 0 if empty.
double geomeanOfMedians(const std::map<std::string, std::vector<double>> &ByKernel);

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One timed call. Parent indexes the enclosing span in the same list
/// (-1 for a root); Request groups the spans of one request.
struct Span {
  std::string Name;
  double StartUs = 0.0;
  double EndUs = 0.0;
  int64_t Parent = -1;
  uint64_t Request = 0;
  uint32_t Thread = 0;
};

/// Self time summed per span name, in ms. A span's self time is its
/// duration minus the part of its interval that its direct children
/// cover (overlapping children count once).
std::map<std::string, double> selfTimeByName(const std::vector<Span> &Spans);

/// In-memory span recorder. While not recording, begin()/end() do
/// nothing; while recording, each thread's open spans nest, and the
/// list is written as Chrome trace-event JSON at exit.
class Tracer {
public:
  explicit Tracer(bool On);

  /// Pauses or resumes recording (the traced run measures an
  /// untraced pass first, to report tracing overhead).
  void setRecording(bool Rec) { On = Rec; }
  /// Parent value meaning "the calling thread's innermost open span".
  static constexpr int64_t Innermost = -2;

  /// Opens a span under \p Parent; returns its index (or -1 while not
  /// recording). A nested span becomes the parent of the thread's
  /// next spans until it ends; a request kept in flight across other
  /// requests (a pipelined client) opens its span un-nested and names
  /// it as the parent of its own calls.
  int64_t begin(std::string Name, uint64_t Request,
                int64_t Parent = Innermost, bool Nest = true);
  void end(int64_t Index);

  std::vector<Span> spans() const;
  /// Writes {"traceEvents": [...]} with one complete ("X") event per
  /// span. Returns false when the file cannot be written.
  bool writeChromeJson(const std::string &Path) const;

private:
  double nowUs() const;

  std::atomic<bool> On;
  std::chrono::steady_clock::time_point Epoch;
  mutable std::mutex Mu;
  std::vector<Span> Spans;
};

/// RAII span that also measures its own duration whether or not the
/// tracer records it (the untraced run's latencies come from here).
class Timed {
public:
  Timed(Tracer &T, std::string Name, uint64_t Request = 0,
        int64_t Parent = Tracer::Innermost);
  ~Timed();
  Timed(const Timed &) = delete;
  Timed &operator=(const Timed &) = delete;

  /// Closes the span now and returns its duration in ms (idempotent).
  double stop();

private:
  Tracer &T;
  int64_t Index;
  std::chrono::steady_clock::time_point Start;
  double Ms = -1.0;
};

//===----------------------------------------------------------------------===//
// Seeded request lists
//===----------------------------------------------------------------------===//

/// A permutation of 0..N-1 drawn from \p Seed.
std::vector<uint32_t> seededShuffle(uint64_t Seed, uint32_t N);

/// \p Passes independent shuffles of 0..N-1, concatenated: the
/// request order of cold_kernels (one pass per fresh service) and the
/// round order of warm_launches.
std::vector<uint32_t> passOrder(uint64_t Seed, uint32_t N, uint32_t Passes);

/// One hit_miss_mix request. A hit names a hot kernel and one of its
/// input variants; a miss names a never-seen kernel.
struct MixRequest {
  uint8_t Client = 0;
  bool Miss = false;
  uint32_t Kernel = 0;
  uint32_t Variant = 0;

  bool operator==(const MixRequest &O) const {
    return Client == O.Client && Miss == O.Miss && Kernel == O.Kernel &&
           Variant == O.Variant;
  }
};

/// The hit_miss_mix schedule for one pass: Misses blocks of
/// MissEvery requests, each holding exactly one miss at a seeded
/// offset (misses drawn without replacement from 0..Misses-1), the
/// rest hits on a seeded hot kernel. Each consecutive pair of
/// requests goes one to each of the two clients, which one is seeded.
/// A client cycles through its own VariantsPerClient variants of each
/// hot kernel (client c owns variants [c*V, (c+1)*V)) from a seeded
/// start, so as long as V exceeds a client's requests in flight, no
/// two in-flight requests carry bit-identical inputs.
std::vector<MixRequest> mixSchedule(uint64_t Seed, uint32_t HotKernels,
                                    uint32_t Misses, uint32_t MissEvery,
                                    uint32_t VariantsPerClient);

//===----------------------------------------------------------------------===//
// Output oracle
//===----------------------------------------------------------------------===//

/// Whether \p Got matches the evaluator's \p Ref: same shape,
/// integers exact, floats within Tol * (1 + |ref|).
bool resultsMatch(const lime::RtValue &Got, const lime::RtValue &Ref,
                  double Tol);

/// Tolerance per workload, as the workload integration tests use.
double toleranceFor(const std::string &WorkloadId);

/// Failure accounting behind fail_ratio: every attempted request is
/// either a success or exactly one of trap, typed service rejection,
/// or mismatch against the reference.
struct Outcomes {
  uint64_t Attempted = 0;
  uint64_t Traps = 0;
  uint64_t Rejections = 0;
  uint64_t Mismatches = 0;

  /// Classifies one result. \p Rejected says whether the trap is a
  /// typed service rejection. Returns true on success.
  bool record(const lime::ExecResult &R, bool Rejected,
              const lime::RtValue &Ref, double Tol);
  uint64_t failed() const { return Traps + Rejections + Mismatches; }
  double failRatio() const {
    return Attempted ? static_cast<double>(failed()) /
                           static_cast<double>(Attempted)
                     : 0.0;
  }
};

} // namespace ledger

#endif // LIMECC_LEDGER_LEDGER_H

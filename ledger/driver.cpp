//===----------------------------------------------------------------------===//
//
// Part of limecc, a C++ reproduction of the Lime GPU compiler (PLDI 2012).
// Distributed under the MIT license; see LICENSE for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The layer ledger's driver: runs one seeded, fixed-length,
/// closed-loop workload through the entry points users call and prints
/// every metric by name and unit, ending with one JSON line.
///
///   ledger_driver --workload cold_kernels|warm_launches|hit_miss_mix
///                 --seed N --seconds S --trace 0|1
///                 [--trace-out FILE] [--counts-dir DIR --build-id ID]
///
/// Workloads (each puts most of its host time in a different layer):
///  - cold_kernels: one client, one request in flight, against a fresh
///    OffloadService per pass (a gtx580, gtx8800 and hd5970 worker).
///    Every request is a kernel the cache has never seen: the seven
///    distinct-class workloads x eight Fig. 8 configurations x three
///    device models. Cost sits in the analysis and bytecode-proof
///    tiers (admission verification, dispatch-time proofs).
///  - warm_launches: one thread re-launching the nine Table 3
///    workloads at MemoryConfig::best() on gtx580 and gtx8800 through
///    rt::OffloadedFilter::invoke (the `limec --run` path). Build and
///    first launch happen in setup, so the time is JIT dispatch.
///  - hit_miss_mix: two closed-loop clients, four requests in flight
///    each, against two gtx580 workers. Hits cycle same-shape input
///    variants of the seven hot kernels; one request in 50 is a kernel
///    the cache has never seen, compiled inside submit() under the
///    cache lock. Cost sits in the cache lock and worker queues.
///
/// --seconds fixes how many passes over the request list a run makes
/// (never a time box: a run always finishes what it starts). Results
/// are checked against the Lime evaluator outside the timed region.
/// --trace 1 re-runs the measured phase with spans around every public
/// call, sends each distinct kernel through the stage calls the service
/// makes internally, and prints the per-layer ledger instead.
///
//===----------------------------------------------------------------------===//

#include "Ledger.h"

#include "analysis/AnalysisOracle.h"
#include "analysis/Verification.h"
#include "bench/BenchUtil.h"
#include "lime/parser/Parser.h"
#include "lime/sema/Sema.h"
#include "ocl/DeviceModel.h"
#include "ocl/Jit.h"
#include "service/OffloadService.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

using namespace lime;
using namespace ledger;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

double cpuMsNow() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Ms = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) * 1e3 +
           static_cast<double>(T.tv_usec) / 1e3;
  };
  return Ms(U.ru_utime) + Ms(U.ru_stime);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/// Pins the calling thread, and every thread it starts afterwards, to
/// the highest-numbered CPU it may run on.
void pinToOneCpu() {
  cpu_set_t Allowed;
  CPU_ZERO(&Allowed);
  if (sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0)
    return;
  for (int C = CPU_SETSIZE - 1; C >= 0; --C) {
    if (!CPU_ISSET(C, &Allowed))
      continue;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(C, &One);
    sched_setaffinity(0, sizeof(One), &One);
    return;
  }
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut;
  std::string CountsDir;
  std::string BuildId;
};

/// The seven workloads whose Lime classes have distinct names, so one
/// program can hold them all (the _dp twins reuse NBody and Series).
const std::vector<std::string> &distinctClassWorkloads() {
  static const std::vector<std::string> Ids = {
      "nbody_sp", "mosaic", "cp", "mriq", "rpes", "crypt", "series_sp"};
  return Ids;
}

/// Figure 8's eight memory configurations.
const std::vector<std::pair<std::string, MemoryConfig>> &fig8Configs() {
  static const std::vector<std::pair<std::string, MemoryConfig>> C = {
      {"global", MemoryConfig::global()},
      {"global+vec", MemoryConfig::globalVector()},
      {"local", MemoryConfig::local()},
      {"local+cr", MemoryConfig::localNoConflict()},
      {"local+cr+vec", MemoryConfig::localNoConflictVector()},
      {"constant", MemoryConfig::constant()},
      {"constant+vec", MemoryConfig::constantVector()},
      {"texture", MemoryConfig::texture()},
  };
  return C;
}

/// Pairs left out of every kernel list because their results differ
/// from the evaluator's on every device model (a compiler defect, not
/// noise): crypt's int[[52]] key is image-eligible, and the texture
/// configuration returns wrong ciphertext.
bool knownWrong(const std::string &WorkloadId, const std::string &Config) {
  return WorkloadId == "crypt" && Config == "texture";
}

//===----------------------------------------------------------------------===//
// Sessions: a parsed program, its evaluator, inputs and references
//===----------------------------------------------------------------------===//

struct Filter {
  const wl::Workload *W = nullptr;
  MethodDecl *Worker = nullptr;
  std::vector<RtValue> Args;
  RtValue Ref;
};

struct Session {
  std::unique_ptr<ASTContext> Ctx;
  Program *Prog = nullptr;
  std::unique_ptr<Interp> I;
  std::vector<Filter> Filters;
  double FrontendMs = 0.0;
  double ReferenceMs = 0.0;

  TypeContext &types() { return Ctx->types(); }
};

/// Runs the evaluator on \p F's worker: the reference every device
/// result is compared with.
RtValue evaluate(Session &S, const Filter &F, const std::vector<RtValue> &Args,
                 Tracer &T) {
  Timed Span(T, "lime::Interp::callMethod");
  ExecResult R = S.I->callMethod(F.Worker, nullptr, Args);
  S.ReferenceMs += Span.stop();
  if (!R.ok())
    throw std::runtime_error("evaluator trapped on " + F.W->Id + ": " +
                             R.TrapMessage);
  return R.Value;
}

/// Parses and checks the concatenated sources of \p Ids as one
/// program, generates inputs at \p Factor x the figure benches'
/// baseScale, and computes each filter's reference.
std::unique_ptr<Session> openSession(const std::vector<std::string> &Ids,
                                     double Factor, Tracer &T) {
  auto S = std::make_unique<Session>();
  S->Ctx = std::make_unique<ASTContext>();
  std::string Source;
  for (const std::string &Id : Ids)
    Source += wl::workloadById(Id).LimeSource;

  DiagnosticEngine Diags;
  {
    Timed Parse(T, "lime::Parser::parseProgram");
    Parser P(Source, *S->Ctx, Diags);
    S->Prog = P.parseProgram();
    S->FrontendMs += Parse.stop();
  }
  if (!Diags.hasErrors()) {
    Timed Check(T, "lime::Sema::check");
    Sema Sm(*S->Ctx, Diags);
    Sm.check(S->Prog);
    S->FrontendMs += Check.stop();
  }
  if (Diags.hasErrors())
    throw std::runtime_error("benchmark program failed to compile:\n" +
                             Diags.dump());

  S->I = std::make_unique<Interp>(S->Prog, S->types());
  for (const std::string &Id : Ids) {
    const wl::Workload &W = wl::workloadById(Id);
    W.Prepare(*S->I, bench::baseScale(Id) * Factor);
    Filter F;
    F.W = &W;
    ClassDecl *C = S->Prog->findClass(W.ClassName);
    F.Worker = C ? C->findMethod(W.FilterMethod) : nullptr;
    if (!F.Worker)
      throw std::runtime_error("no filter " + W.ClassName + "." +
                               W.FilterMethod);
    // The worker's parameters bind to the same-named static inputs
    // the workload's generator installed.
    for (ParamDecl *P : F.Worker->params()) {
      FieldDecl *Fd = C->findField(P->name());
      if (!Fd)
        throw std::runtime_error("cannot bind " + W.Id + " parameter '" +
                                 P->name() + "'");
      F.Args.push_back(S->I->getStaticField(Fd));
    }
    S->Filters.push_back(std::move(F));
  }
  for (Filter &F : S->Filters)
    F.Ref = evaluate(*S, F, F.Args, T);
  return S;
}

//===----------------------------------------------------------------------===//
// Kernels and samples
//===----------------------------------------------------------------------===//

/// One distinct kernel: a filter of a session under one memory
/// configuration on one device model.
struct Kernel {
  Session *S = nullptr;
  uint32_t FilterIdx = 0;
  MemoryConfig Mem;
  std::string Device;
  std::string Id; // workload/config/device

  const Filter &filter() const { return S->Filters[FilterIdx]; }
  rt::OffloadConfig offloadConfig() const {
    rt::OffloadConfig C;
    C.DeviceName = Device;
    C.Mem = Mem;
    // The workload's standing facts ride along, as in `limec --run`.
    C.Assumes = filter().W->DefaultAssumes;
    return C;
  }
};

Kernel makeKernel(Session &S, uint32_t F, const std::string &Config,
                  const MemoryConfig &Mem, const std::string &Device) {
  Kernel K;
  K.S = &S;
  K.FilterIdx = F;
  K.Mem = Mem;
  K.Device = Device;
  K.Id = S.Filters[F].W->Id + "/" + Config + "/" + Device;
  return K;
}

/// One completed request of a measured phase.
struct Sample {
  uint32_t Kernel = 0;
  bool Hit = true; // served by an already-built kernel
  double Ms = 0.0;       // submit/invoke to result
  double SubmitMs = 0.0; // inside OffloadService::submit
  double WaitMs = 0.0;   // submit's return to the result
};

/// Everything a measured phase produces.
struct Phase {
  std::vector<Sample> Samples;
  Outcomes Out;
  double WallS = 0.0;
  double CpuMs = 0.0;
  /// Simulated clocks: per-kernel per-launch ns (where the launch
  /// order is fixed) and phase totals.
  std::map<uint32_t, double> SimKernelNs, SimCommNs;
  double SimKernelTotalNs = 0.0, SimCommTotalNs = 0.0;
  uint64_t MarshalBytes = 0;
  // Service counters summed over the phase's services.
  uint64_t CacheHits = 0, CacheMisses = 0, Launches = 0, Requests = 0,
           FellBack = 0;

  /// Adds one service's counters, less \p Before when given.
  void addServiceStats(const service::OffloadServiceStats &St,
                       const service::OffloadServiceStats *Before = nullptr) {
    service::OffloadServiceStats Zero;
    const service::OffloadServiceStats &B = Before ? *Before : Zero;
    CacheHits += St.Cache.Hits - B.Cache.Hits;
    CacheMisses += St.Cache.Misses - B.Cache.Misses;
    Launches += St.launches() - B.launches();
    Requests += St.Submitted - B.Submitted;
    FellBack += St.FellBack - B.FellBack;
  }
};

/// Checks one result against \p Ref (outside any timed region),
/// naming the kernel of every failure.
void check(Outcomes &Out, const ExecResult &R, const Kernel &K,
           const RtValue &Ref) {
  bool Rejected =
      service::classifyServiceError(R) != service::ServiceRejectKind::None;
  if (!Out.record(R, Rejected, Ref, toleranceFor(K.filter().W->Id)))
    std::printf("failed %s: %s\n", K.Id.c_str(),
                R.Trapped ? R.TrapMessage.substr(0, 240).c_str()
                          : "result differs from the evaluator's");
}

service::OffloadRequest requestFor(const Kernel &K,
                                   const std::vector<RtValue> &Args,
                                   const std::string &Client) {
  service::OffloadRequest R;
  R.Worker = K.filter().Worker;
  R.Args = Args;
  R.Config = K.offloadConfig();
  R.Options.ClientId = Client;
  return R;
}

//===----------------------------------------------------------------------===//
// The stage probe (traced runs only)
//===----------------------------------------------------------------------===//

/// One kernel sent through the public calls the service makes inside
/// submit() and on its worker, each timed on its own.
struct ProbeRow {
  double OracleMs = 0, VerifyMs = 0, VerifyNoBcMs = 0, BuildMs = 0,
         FirstMs = 0, WarmMs = 0, DispatchMs = 0, HostMs = 0, JitCompileMs = 0;
  uint64_t OpenclBytes = 0, Findings = 0, CodeBytes = 0, MarshalBytes = 0,
           Proven = 0, OpsTotal = 0, JitDispatches = 0, InterpDispatches = 0;
  double SimKernelNs = 0, SimCommNs = 0;
};

/// Request ids of the traced run's extra calls, above any measured
/// request's, so the trace tells them apart.
constexpr uint64_t LegRequestBase = 500000;
constexpr uint64_t ProbeRequestBase = 1000000;
constexpr int ProbeWarmLaunches = 3;

ProbeRow probeKernel(const Kernel &K, uint64_t Request, Tracer &T,
                     Outcomes &Out) {
  ProbeRow Row;
  Session &S = *K.S;
  const Filter &F = K.filter();
  Timed Whole(T, "probe.kernel", Request);
  rt::OffloadConfig Canon = rt::canonicalOffloadConfig(K.offloadConfig());

  CompiledKernel CK;
  {
    Timed Sp(T, "analysis::oracleCompile", Request);
    CK = analysis::oracleCompile(S.Prog, S.types(), F.Worker, Canon.Mem);
    Row.OracleMs = Sp.stop();
  }
  if (!CK.Ok)
    throw std::runtime_error("probe: " + K.Id + " failed to compile: " +
                             CK.Error);
  Row.OpenclBytes = CK.Source.size();

  // The service's admission request (OffloadService::compileVerified).
  analysis::VerifyRequest VR;
  VR.Kernel = &CK;
  VR.Geometry = analysis::GeometryPolicy::Symbolic;
  VR.AssumeMode = analysis::AssumePolicy::Ignore;
  VR.Device = &ocl::deviceByName(Canon.DeviceName);
  VR.BytecodeTier = true;
  {
    Timed Sp(T, "analysis::runVerification", Request);
    analysis::VerifyResult V = analysis::runVerification(VR);
    Row.VerifyMs = Sp.stop();
    Row.Findings = V.Report.Findings.size();
  }
  VR.BytecodeTier = false;
  {
    Timed Sp(T, "analysis::runVerification[bytecode-tier-off]", Request);
    analysis::runVerification(VR);
    Row.VerifyNoBcMs = Sp.stop();
  }

  ocl::resetJitStats();
  rt::OffloadedFilter OF(S.Prog, S.types(), F.Worker, Canon, nullptr, CK);
  {
    Timed Sp(T, "rt::OffloadedFilter::prepare", Request);
    std::string Err = OF.prepare(F.Args);
    Row.BuildMs = Sp.stop();
    if (!Err.empty())
      throw std::runtime_error("probe: " + K.Id + " failed to build: " + Err);
  }
  for (const ocl::JitKernelStats &J : ocl::jitStatsSnapshot()) {
    Row.JitCompileMs += J.CompileMs;
    Row.CodeBytes += J.CodeBytes;
  }

  std::vector<double> Warm, Dispatch, Host;
  for (int L = 0; L <= ProbeWarmLaunches; ++L) {
    double D0 = OF.context().profile().WallDispatchMs;
    rt::OffloadStats Before = OF.stats();
    Timed Sp(T, L ? "rt::OffloadedFilter::invoke[warm]"
                  : "rt::OffloadedFilter::invoke[first]",
             Request);
    ExecResult R = OF.invoke(F.Args);
    double Ms = Sp.stop();
    double DMs = OF.context().profile().WallDispatchMs - D0;
    check(Out, R, K, F.Ref);
    const rt::OffloadStats &After = OF.stats();
    Row.SimKernelNs = After.KernelNs - Before.KernelNs;
    Row.SimCommNs = After.commNs() - Before.commNs();
    Row.MarshalBytes = After.Marshal.Bytes - Before.Marshal.Bytes;
    if (L == 0) {
      Row.FirstMs = Ms;
      continue;
    }
    Warm.push_back(Ms);
    Dispatch.push_back(DMs);
    Host.push_back(Ms - DMs);
  }
  Row.WarmMs = median(Warm);
  Row.DispatchMs = median(Dispatch);
  Row.HostMs = median(Host);
  for (const ocl::JitKernelStats &J : ocl::jitStatsSnapshot()) {
    Row.Proven += J.BcMemOpsProven;
    Row.OpsTotal += J.BcMemOpsTotal;
    Row.JitDispatches += J.JitDispatches;
    Row.InterpDispatches += J.InterpDispatches;
  }
  return Row;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// A workload: its state is rebuilt by setup() (run several times; the
/// last build is measured), then measure() runs the request list.
class Workload {
public:
  virtual ~Workload() = default;
  virtual const char *name() const = 0;
  /// Nominal seconds one pass takes on a 4-vCPU x86-64 VM; --seconds
  /// divides by it to fix the pass count.
  virtual double nominalPassSeconds() const = 0;
  virtual void setup(Tracer &T) = 0;
  virtual Phase measure(uint32_t Passes, uint64_t Seed, Tracer &T) = 0;
  /// Traced runs: service-layer samples beyond the measured phase, so
  /// the service layer has numbers on every workload.
  virtual void serviceLeg(Phase &P, Tracer &T) {}
  /// Kernels of the workload, distinct, in a stable order.
  std::vector<Kernel> Kernels;
  /// Kernels whose samples form ms_geomean.
  virtual bool inGeomean(uint32_t Kernel) const { return true; }
  /// Whether the workload never runs two threads at once, so it can be
  /// held on one CPU: every hand-off between its threads then skips
  /// waking an idle CPU, which on a loaded VM host adds milliseconds
  /// to each request.
  virtual bool serial() const { return false; }
  double FrontendMs = 0.0, ReferenceMs = 0.0;
};

/// Submits one request, waits, and records the sample (the result is
/// kept for checking after the timed loop).
ExecResult submitAndWait(service::OffloadService &Svc,
                         service::OffloadRequest Req, uint32_t KernelIdx,
                         bool Hit, uint64_t Request, Tracer &T, Phase &P) {
  Sample Sm;
  Sm.Kernel = KernelIdx;
  Sm.Hit = Hit;
  Timed Whole(T, "request", Request);
  std::future<ExecResult> Fut;
  {
    Timed Sp(T, "service::OffloadService::submit", Request);
    Fut = Svc.submit(std::move(Req));
    Sm.SubmitMs = Sp.stop();
  }
  ExecResult R;
  {
    Timed Sp(T, "std::future::get", Request);
    R = Fut.get();
    Sm.WaitMs = Sp.stop();
  }
  Sm.Ms = Whole.stop();
  P.Samples.push_back(Sm);
  return R;
}

class ColdKernels : public Workload {
public:
  const char *name() const override { return "cold_kernels"; }
  double nominalPassSeconds() const override { return 7.0; }
  bool serial() const override { return true; }

  void setup(Tracer &T) override {
    Kernels.clear();
    S = openSession(distinctClassWorkloads(), 0.02, T);
    FrontendMs = S->FrontendMs;
    ReferenceMs = S->ReferenceMs;
    for (const char *Dev : {"gtx580", "gtx8800", "hd5970"})
      for (uint32_t F = 0; F != S->Filters.size(); ++F)
        for (const auto &[Name, Mem] : fig8Configs())
          if (!knownWrong(S->Filters[F].W->Id, Name))
            Kernels.push_back(makeKernel(*S, F, Name, Mem, Dev));
    // Discarded warm-up on a throwaway service: the first service run
    // after idle is markedly slower.
    service::OffloadService Svc(S->Prog, S->types(), serviceConfig());
    for (uint32_t F = 0; F != S->Filters.size(); ++F) {
      Kernel K = makeKernel(*S, F, "best", MemoryConfig::best(), "gtx580");
      Svc.submit(requestFor(K, K.filter().Args, "warmup")).get();
    }
  }

  Phase measure(uint32_t Passes, uint64_t Seed, Tracer &T) override {
    Phase P;
    uint32_t N = static_cast<uint32_t>(Kernels.size());
    std::vector<uint32_t> Order = passOrder(Seed, N, Passes);
    uint64_t Request = 0;
    for (uint32_t Pass = 0; Pass != Passes; ++Pass) {
      Svc = std::make_unique<service::OffloadService>(S->Prog, S->types(),
                                                      serviceConfig());
      std::vector<ExecResult> Results;
      Results.reserve(N);
      for (uint32_t I = 0; I != N; ++I) {
        const Kernel &K = Kernels[Order[Pass * N + I]];
        rt::OffloadStats Before = Svc->stats().Device;
        double Cpu0 = cpuMsNow();
        Results.push_back(submitAndWait(*Svc, requestFor(K, K.filter().Args, "c0"),
                                        Order[Pass * N + I], /*Hit=*/false,
                                        Request++, T, P));
        P.CpuMs += cpuMsNow() - Cpu0;
        P.WallS += P.Samples.back().Ms / 1e3;
        rt::OffloadStats After = Svc->stats().Device;
        P.SimKernelNs[Order[Pass * N + I]] = After.KernelNs - Before.KernelNs;
        P.SimCommNs[Order[Pass * N + I]] = After.commNs() - Before.commNs();
      }
      Svc->waitIdle();
      service::OffloadServiceStats St = Svc->stats();
      P.addServiceStats(St);
      P.SimKernelTotalNs += St.Device.KernelNs;
      P.SimCommTotalNs += St.Device.commNs();
      P.MarshalBytes += St.Device.Marshal.Bytes;
      for (uint32_t I = 0; I != N; ++I) {
        const Kernel &K = Kernels[Order[Pass * N + I]];
        check(P.Out, Results[I], K, K.filter().Ref);
      }
      if (Pass + 1 != Passes)
        Svc.reset();
    }
    return P;
  }

  /// Every kernel once more against the last pass's service, which
  /// has them all cached: the service layer's hit path.
  void serviceLeg(Phase &P, Tracer &T) override {
    if (!Svc)
      return;
    service::OffloadServiceStats Before = Svc->stats();
    uint64_t Request = LegRequestBase;
    for (uint32_t I = 0; I != Kernels.size(); ++I) {
      const Kernel &K = Kernels[I];
      ExecResult R = submitAndWait(*Svc, requestFor(K, K.filter().Args, "c0"),
                                   I, /*Hit=*/true, Request++, T, P);
      check(P.Out, R, K, K.filter().Ref);
    }
    Svc->waitIdle();
    P.addServiceStats(Svc->stats(), &Before);
    Svc.reset();
  }

private:
  static service::ServiceConfig serviceConfig() {
    service::ServiceConfig C;
    C.Devices = {"gtx580", "gtx8800", "hd5970"};
    C.CacheCapacity = 256; // a pass's kernels all stay cached
    return C;
  }

  std::unique_ptr<Session> S;
  std::unique_ptr<service::OffloadService> Svc;
};

class WarmLaunches : public Workload {
public:
  const char *name() const override { return "warm_launches"; }
  double nominalPassSeconds() const override { return 0.15; }
  bool serial() const override { return true; }

  void setup(Tracer &T) override {
    Kernels.clear();
    Filters.clear();
    Sessions.clear();
    FrontendMs = ReferenceMs = 0.0;
    for (const wl::Workload &W : wl::workloadRegistry()) {
      Sessions.push_back(openSession({W.Id}, 0.25, T));
      FrontendMs += Sessions.back()->FrontendMs;
      ReferenceMs += Sessions.back()->ReferenceMs;
    }
    for (const char *Dev : {"gtx580", "gtx8800"})
      for (auto &S : Sessions)
        Kernels.push_back(makeKernel(*S, 0, "best", MemoryConfig::best(), Dev));
    // Build and first launch (compile, dispatch-time proofs) belong to
    // setup, so the measured phase is warm dispatch only.
    for (uint32_t I = 0; I != Kernels.size(); ++I) {
      const Kernel &K = Kernels[I];
      auto OF = std::make_unique<rt::OffloadedFilter>(
          K.S->Prog, K.S->types(), K.filter().Worker, K.offloadConfig());
      Timed Sp(T, "rt::OffloadedFilter::invoke[first]", I);
      ExecResult R = OF->invoke(K.filter().Args);
      if (!R.ok())
        throw std::runtime_error(K.Id + " failed its first launch: " +
                                 R.TrapMessage);
      Filters.push_back(std::move(OF));
    }
  }

  Phase measure(uint32_t Passes, uint64_t Seed, Tracer &T) override {
    Phase P;
    uint32_t N = static_cast<uint32_t>(Kernels.size());
    std::vector<uint32_t> Order = passOrder(Seed, N, Passes);
    uint64_t Request = 0;
    std::vector<ExecResult> Results(N);
    for (uint32_t Round = 0; Round != Passes; ++Round) {
      double Cpu0 = cpuMsNow();
      for (uint32_t I = 0; I != N; ++I) {
        uint32_t KI = Order[Round * N + I];
        rt::OffloadedFilter &OF = *Filters[KI];
        Sample Sm;
        Sm.Kernel = KI;
        rt::OffloadStats Before = OF.stats();
        {
          Timed Sp(T, "rt::OffloadedFilter::invoke", Request++);
          Results[I] = OF.invoke(Kernels[KI].filter().Args);
          Sm.Ms = Sp.stop();
        }
        const rt::OffloadStats &After = OF.stats();
        P.SimKernelNs[KI] = After.KernelNs - Before.KernelNs;
        P.SimCommNs[KI] = After.commNs() - Before.commNs();
        P.SimKernelTotalNs += After.KernelNs - Before.KernelNs;
        P.SimCommTotalNs += After.commNs() - Before.commNs();
        P.MarshalBytes += After.Marshal.Bytes - Before.Marshal.Bytes;
        P.Samples.push_back(Sm);
        P.WallS += Sm.Ms / 1e3;
      }
      P.CpuMs += cpuMsNow() - Cpu0;
      for (uint32_t I = 0; I != N; ++I) {
        const Kernel &K = Kernels[Order[Round * N + I]];
        check(P.Out, Results[I], K, K.filter().Ref);
      }
    }
    return P;
  }

  /// The rt path has no service; send each kernel through one anyway
  /// (one cold submit, then warm ones) so the service layer has
  /// numbers here too.
  void serviceLeg(Phase &P, Tracer &T) override {
    uint64_t Request = LegRequestBase;
    for (auto &S : Sessions) {
      service::ServiceConfig C;
      C.Devices = {"gtx580", "gtx8800"};
      service::OffloadService Svc(S->Prog, S->types(), C);
      for (uint32_t I = 0; I != Kernels.size(); ++I) {
        const Kernel &K = Kernels[I];
        if (K.S != S.get())
          continue;
        for (int Rep = 0; Rep != 1 + ProbeWarmLaunches; ++Rep) {
          ExecResult R = submitAndWait(Svc, requestFor(K, K.filter().Args, "c0"),
                                       I, /*Hit=*/Rep != 0, Request++, T, P);
          check(P.Out, R, K, K.filter().Ref);
        }
      }
      Svc.waitIdle();
      P.addServiceStats(Svc.stats());
    }
  }

private:
  std::vector<std::unique_ptr<Session>> Sessions;
  std::vector<std::unique_ptr<rt::OffloadedFilter>> Filters;
};

class HitMissMix : public Workload {
public:
  static constexpr uint32_t MissEvery = 50;
  static constexpr uint32_t InFlight = 4; // per client
  static constexpr uint32_t VariantsPerClient = InFlight + 1;

  const char *name() const override { return "hit_miss_mix"; }
  double nominalPassSeconds() const override { return 5.5; }

  void setup(Tracer &T) override {
    Kernels.clear();
    Variants.clear();
    S = openSession(distinctClassWorkloads(), 0.02, T);
    uint32_t Hot = static_cast<uint32_t>(S->Filters.size());
    for (uint32_t F = 0; F != Hot; ++F)
      Kernels.push_back(
          makeKernel(*S, F, "best", MemoryConfig::best(), "gtx580"));
    for (uint32_t F = 0; F != Hot; ++F)
      for (const auto &[Name, Mem] : fig8Configs())
        if (!knownWrong(S->Filters[F].W->Id, Name))
          Kernels.push_back(makeKernel(*S, F, Name, Mem, "gtx580"));
    // Same-shape input variants of each hot filter: the stream input's
    // rows in a seeded order, the bound arguments untouched.
    for (uint32_t F = 0; F != Hot; ++F) {
      const Filter &Fl = S->Filters[F];
      std::vector<Variant> Vs;
      for (uint32_t V = 0; V != 2 * VariantsPerClient; ++V) {
        Variant Var;
        Var.Args = Fl.Args;
        const RtArray &Src = *Fl.Args[0].array();
        auto Perm = std::make_shared<RtArray>(Src);
        Perm->BufferId = 0;
        std::vector<uint32_t> Order = seededShuffle(
            VariantSeed * 1000003 + F * 101 + V,
            static_cast<uint32_t>(Src.Elems.size()));
        for (size_t I = 0; I != Order.size(); ++I)
          Perm->Elems[I] = Src.Elems[Order[I]];
        Var.Args[0] = RtValue::makeArray(std::move(Perm));
        Var.Ref = evaluate(*S, Fl, Var.Args, T);
        Vs.push_back(std::move(Var));
      }
      Variants.push_back(std::move(Vs));
    }
    FrontendMs = S->FrontendMs;
    ReferenceMs = S->ReferenceMs;
    // Discarded warm-up on a throwaway service.
    auto Svc = freshService();
  }

  Phase measure(uint32_t Passes, uint64_t Seed, Tracer &T) override {
    Phase P;
    uint32_t Hot = static_cast<uint32_t>(Variants.size());
    uint32_t Misses = static_cast<uint32_t>(Kernels.size()) - Hot;
    uint64_t RequestBase = 0;
    for (uint32_t Pass = 0; Pass != Passes; ++Pass) {
      std::vector<MixRequest> List = mixSchedule(
          Seed * 131 + Pass, Hot, Misses, MissEvery, VariantsPerClient);
      auto Svc = freshService();
      std::vector<ExecResult> Results(List.size());
      std::vector<Sample> Samples(List.size());
      std::vector<std::vector<uint32_t>> PerClient(2);
      for (uint32_t I = 0; I != List.size(); ++I)
        PerClient[List[I].Client].push_back(I);

      auto Client = [&](unsigned C) {
        struct InFlightReq {
          uint32_t Index;
          Clock::time_point T0;
          std::future<ExecResult> Fut;
          int64_t Span;
        };
        std::deque<InFlightReq> Window;
        const char *Id = C ? "c1" : "c0";
        auto Complete = [&] {
          InFlightReq Q = std::move(Window.front());
          Window.pop_front();
          {
            Timed Sp(T, "std::future::get", RequestBase + Q.Index, Q.Span);
            Results[Q.Index] = Q.Fut.get();
          }
          Samples[Q.Index].Ms = msSince(Q.T0);
          T.end(Q.Span);
        };
        for (uint32_t I : PerClient[C]) {
          if (Window.size() == InFlight)
            Complete();
          const MixRequest &R = List[I];
          const Kernel &K = Kernels[R.Miss ? Hot + R.Kernel : R.Kernel];
          const std::vector<RtValue> &Args =
              R.Miss ? K.filter().Args : Variants[R.Kernel][R.Variant].Args;
          Sample &Sm = Samples[I];
          Sm.Kernel = R.Miss ? Hot + R.Kernel : R.Kernel;
          Sm.Hit = !R.Miss;
          InFlightReq Q;
          Q.Index = I;
          Q.Span = T.begin("request", RequestBase + I, Tracer::Innermost,
                           /*Nest=*/false);
          Q.T0 = Clock::now();
          {
            Timed Sp(T, "service::OffloadService::submit", RequestBase + I,
                     Q.Span);
            Q.Fut = Svc->submit(requestFor(K, Args, Id));
            Sm.SubmitMs = Sp.stop();
          }
          Window.push_back(std::move(Q));
        }
        while (!Window.empty())
          Complete();
      };

      double Cpu0 = cpuMsNow();
      Clock::time_point W0 = Clock::now();
      std::exception_ptr C1Error;
      std::thread C1([&] {
        try {
          Client(1);
        } catch (...) {
          C1Error = std::current_exception();
        }
      });
      try {
        Client(0);
      } catch (...) {
        C1.join();
        throw;
      }
      C1.join();
      if (C1Error)
        std::rethrow_exception(C1Error);
      P.WallS += msSince(W0) / 1e3;
      P.CpuMs += cpuMsNow() - Cpu0;

      // Everything after submit returns counts as waiting, including
      // time a finished result sat behind an older one in the window.
      for (Sample &Sm : Samples)
        Sm.WaitMs = Sm.Ms - Sm.SubmitMs;
      Svc->waitIdle();
      service::OffloadServiceStats St = Svc->stats();
      P.addServiceStats(St);
      for (uint32_t I = 0; I != List.size(); ++I) {
        const MixRequest &R = List[I];
        const RtValue &Ref = R.Miss ? Kernels[Hot + R.Kernel].filter().Ref
                                    : Variants[R.Kernel][R.Variant].Ref;
        check(P.Out, Results[I], Kernels[Samples[I].Kernel], Ref);
      }
      P.Samples.insert(P.Samples.end(), Samples.begin(), Samples.end());
      RequestBase += List.size();
    }
    return P;
  }

  bool inGeomean(uint32_t Kernel) const override {
    return Kernel < Variants.size();
  }

private:
  struct Variant {
    std::vector<RtValue> Args;
    RtValue Ref;
  };
  /// Variants are generated once per process, independent of the
  /// traffic seed, so every seed runs the same inputs.
  static constexpr uint64_t VariantSeed = 0x1ed9e7;

  service::ServiceConfig serviceConfig() const {
    service::ServiceConfig C;
    C.Devices = {"gtx580", "gtx580"};
    // Merged launches are off: whether requests merge depends on
    // timing, each new merged NDRange size re-runs the dispatch-time
    // prover, and merging nbody_sp requests with different inputs
    // returns wrong forces (the map source is also the gathered array).
    C.EnableBatching = false;
    return C;
  }

  /// A service with every hot kernel built and launched on both
  /// workers, so the measured phase's only cold work is its misses.
  std::unique_ptr<service::OffloadService> freshService() {
    auto Svc = std::make_unique<service::OffloadService>(S->Prog, S->types(),
                                                         serviceConfig());
    uint32_t Hot = static_cast<uint32_t>(Variants.size());
    for (int Round = 0; Round != 8; ++Round) {
      std::vector<std::future<ExecResult>> Futs;
      for (uint32_t F = 0; F != Hot; ++F)
        for (const Variant &V : Variants[F])
          Futs.push_back(Svc->submit(requestFor(Kernels[F], V.Args, "warmup")));
      for (auto &Fu : Futs)
        Fu.get();
      bool Everywhere = true;
      for (uint32_t F = 0; F != Hot; ++F) {
        service::KernelKey Key = service::KernelKey::make(
            Kernels[F].filter().Worker,
            rt::canonicalOffloadConfig(Kernels[F].offloadConfig()));
        for (unsigned W = 0; W != 2; ++W)
          Everywhere = Everywhere && Svc->cache().isResident(Key, W);
      }
      if (Everywhere)
        break;
    }
    Svc->waitIdle();
    return Svc;
  }

  std::unique_ptr<Session> S;
  std::vector<std::vector<Variant>> Variants;
};

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "cold_kernels")
    return std::make_unique<ColdKernels>();
  if (Name == "warm_launches")
    return std::make_unique<WarmLaunches>();
  if (Name == "hit_miss_mix")
    return std::make_unique<HitMissMix>();
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Ms) {
  std::ostringstream O;
  O << "{\"correct\": " << (Correct ? "true" : "false")
    << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
    << ", \"metrics\": {";
  for (size_t I = 0; I != Ms.size(); ++I)
    O << (I ? ", " : "") << "\"" << Ms[I].Name << "\": {\"value\": "
      << jsonNumber(Ms[I].Value) << ", \"unit\": \"" << Ms[I].Unit << "\"}";
  O << "}}";
  std::printf("%s\n", O.str().c_str());
}

/// Deterministic counts, printed in a stable order and compared with
/// the previous run of the same build and request list: a count that
/// moves between two runs of the same code is a nondeterminism
/// finding, not noise.
void checkCounts(const std::vector<std::pair<std::string, std::string>> &Counts,
                 const Options &Opt, const std::string &Key) {
  for (const auto &[Name, Value] : Counts)
    std::printf("count %-28s %s\n", Name.c_str(), Value.c_str());
  if (Opt.CountsDir.empty())
    return;
  std::string Path = Opt.CountsDir + "/" + Key + ".txt";
  std::map<std::string, std::string> Prev;
  std::string PrevBuild;
  {
    std::ifstream In(Path);
    std::string Name, Value;
    if (In >> Name >> PrevBuild && Name == "build")
      while (In >> Name >> Value)
        Prev[Name] = Value;
  }
  if (PrevBuild == Opt.BuildId) {
    unsigned Findings = 0;
    for (const auto &[Name, Value] : Counts) {
      auto It = Prev.find(Name);
      if (It != Prev.end() && It->second != Value) {
        std::printf("nondeterminism: %s was %s in the previous run of this "
                    "build, now %s\n",
                    Name.c_str(), It->second.c_str(), Value.c_str());
        ++Findings;
      }
    }
    if (!Findings && !Prev.empty())
      std::printf("counts: identical to the previous run of this build\n");
  }
  std::ofstream Out(Path);
  Out << "build " << Opt.BuildId << "\n";
  for (const auto &[Name, Value] : Counts)
    Out << Name << " " << Value << "\n";
}

std::string fixed(double V, int Digits = 3) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Digits, V);
  return Buf;
}

/// Per-kernel rows: a regression on one program shows here even where
/// the geomean hides it.
void printKernelRows(const Workload &WL, const Phase &P,
                     const std::vector<ProbeRow> *Probe) {
  std::map<uint32_t, std::vector<double>> ByKernel;
  for (const Sample &S : P.Samples)
    ByKernel[S.Kernel].push_back(S.Ms);
  std::printf("%-34s %5s %10s %12s %12s", "kernel", "n", "p50_ms",
              "sim_kern_ns", "sim_comm_ns");
  if (Probe)
    std::printf(" %9s %9s %9s %9s %9s %9s %9s", "oracle", "ast_ver", "bc_tier",
                "build", "first+", "dispatch", "host");
  std::printf("\n");
  for (uint32_t K = 0; K != WL.Kernels.size(); ++K) {
    auto It = ByKernel.find(K);
    // Simulated ns per launch: from the measured phase where one
    // request is one launch, else from the probe ("-" when neither).
    std::string SimK = "-", SimC = "-";
    if (P.SimKernelNs.count(K)) {
      SimK = fixed(P.SimKernelNs.at(K), 0);
      SimC = fixed(P.SimCommNs.at(K), 0);
    } else if (Probe) {
      SimK = fixed((*Probe)[K].SimKernelNs, 0);
      SimC = fixed((*Probe)[K].SimCommNs, 0);
    }
    std::printf("%-34s %5zu %10s %12s %12s", WL.Kernels[K].Id.c_str(),
                It == ByKernel.end() ? size_t(0) : It->second.size(),
                It == ByKernel.end() ? "-" : fixed(median(It->second)).c_str(),
                SimK.c_str(), SimC.c_str());
    if (Probe) {
      const ProbeRow &R = (*Probe)[K];
      std::printf(" %9s %9s %9s %9s %9s %9s %9s", fixed(R.OracleMs).c_str(),
                  fixed(R.VerifyNoBcMs).c_str(),
                  fixed(R.VerifyMs - R.VerifyNoBcMs).c_str(),
                  fixed(R.BuildMs).c_str(),
                  fixed(R.FirstMs - R.WarmMs).c_str(),
                  fixed(R.DispatchMs).c_str(), fixed(R.HostMs).c_str());
    }
    std::printf("\n");
  }
}

std::vector<Metric> endToEnd(const Workload &WL, const Phase &P,
                             double SetupS) {
  std::vector<double> All;
  std::map<std::string, std::vector<double>> ByKernel;
  for (const Sample &S : P.Samples) {
    All.push_back(S.Ms);
    if (WL.inGeomean(S.Kernel))
      ByKernel[WL.Kernels[S.Kernel].Id].push_back(S.Ms);
  }
  TailStat Tail = tailPercentile(All);
  std::printf("ms_tail is p%g over %zu samples (%zu beyond)\n",
              Tail.Percentile, Tail.Samples, Tail.Beyond);
  return {
      {"setup_s", SetupS, "s"},
      {"req_per_s", static_cast<double>(All.size()) / P.WallS, "1/s"},
      {"ms_p50", median(All), "ms"},
      {"ms_tail", Tail.Value, "ms"},
      {"ms_geomean", geomeanOfMedians(ByKernel), "ms"},
      {"peak_rss_mb", peakRssMb(), "MB"},
  };
}

double percentileOf(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t K = static_cast<size_t>(
      std::ceil(P / 100.0 * static_cast<double>(V.size()) - 1e-9));
  return V[std::max<size_t>(K, 1) - 1];
}

std::vector<Metric> perLayer(const Workload &WL, const Phase &Untraced,
                             const Phase &Traced,
                             const std::vector<ProbeRow> &Probe) {
  ProbeRow Sum;
  for (const ProbeRow &R : Probe) {
    Sum.OracleMs += R.OracleMs;
    Sum.VerifyMs += R.VerifyMs;
    Sum.VerifyNoBcMs += R.VerifyNoBcMs;
    Sum.BuildMs += R.BuildMs;
    Sum.FirstMs += R.FirstMs - R.WarmMs;
    Sum.DispatchMs += R.DispatchMs;
    Sum.HostMs += R.HostMs;
    Sum.JitCompileMs += R.JitCompileMs;
    Sum.OpenclBytes += R.OpenclBytes;
    Sum.Findings += R.Findings;
    Sum.CodeBytes += R.CodeBytes;
    Sum.MarshalBytes += R.MarshalBytes;
    Sum.Proven += R.Proven;
    Sum.OpsTotal += R.OpsTotal;
    Sum.JitDispatches += R.JitDispatches;
    Sum.InterpDispatches += R.InterpDispatches;
    Sum.SimKernelNs += R.SimKernelNs;
    Sum.SimCommNs += R.SimCommNs;
  }
  // The cold path of one kernel, stage by stage (the service's
  // submit + worker work, as the probe replays it).
  double Cold = Sum.OracleMs + Sum.VerifyMs + Sum.BuildMs + Sum.FirstMs +
                Sum.DispatchMs + Sum.HostMs;
  std::printf("stage split over %zu kernels (ms, share of the cold path "
              "%.1f ms):\n",
              Probe.size(), Cold);
  auto Share = [&](const char *Name, double Ms) {
    std::printf("  %-40s %10.3f %6.1f%%\n", Name, Ms,
                Cold > 0 ? 100.0 * Ms / Cold : 0.0);
  };
  Share("compiler (analysis::oracleCompile)", Sum.OracleMs);
  Share("analysis AST verifier", Sum.VerifyNoBcMs);
  Share("analysis/bc bytecode tier", Sum.VerifyMs - Sum.VerifyNoBcMs);
  Share("ocl build (prepare)", Sum.BuildMs);
  Share("  of which jit compile", Sum.JitCompileMs);
  Share("first-launch extra (dispatch proofs)", Sum.FirstMs);
  Share("warm dispatch (SimDevice::run)", Sum.DispatchMs);
  Share("warm host (marshal, transfer glue)", Sum.HostMs);

  // Service samples: the traced phase's submits where the workload
  // uses the service, plus each workload's service leg.
  std::vector<double> SubmitHit, SubmitMiss, Wait, HitMs;
  for (const Sample &S : Traced.Samples) {
    if (S.SubmitMs <= 0.0)
      continue; // an rt::OffloadedFilter::invoke, not a service request
    (S.Hit ? SubmitHit : SubmitMiss).push_back(S.SubmitMs);
    Wait.push_back(S.WaitMs);
    if (S.Hit)
      HitMs.push_back(S.Ms);
  }
  TailStat HitTail = tailPercentile(HitMs);
  std::printf("service.hit_ms_tail is p%g over %zu traced hits (%zu beyond)\n",
              HitTail.Percentile, HitTail.Samples, HitTail.Beyond);
  double Requests = static_cast<double>(Untraced.Samples.size());
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  return {
      {"lime.frontend_ms", WL.FrontendMs, "ms"},
      {"lime.reference_ms", WL.ReferenceMs, "ms"},
      {"compiler.oracle_ms", Sum.OracleMs, "ms"},
      {"compiler.opencl_bytes", static_cast<double>(Sum.OpenclBytes), "bytes"},
      {"analysis.verify_ms", Sum.VerifyMs, "ms"},
      {"analysis.findings", static_cast<double>(Sum.Findings), "count"},
      {"bc.verify_tier_ms", Sum.VerifyMs - Sum.VerifyNoBcMs, "ms"},
      {"bc.first_launch_extra_ms", Sum.FirstMs, "ms"},
      {"bc.proof_coverage",
       Ratio(static_cast<double>(Sum.Proven), static_cast<double>(Sum.OpsTotal)),
       "ratio"},
      {"ocl.build_ms", Sum.BuildMs, "ms"},
      {"ocl.dispatch_ms", Sum.DispatchMs, "ms"},
      {"ocl.sim_kernel_ms", Sum.SimKernelNs / 1e6, "ms"},
      {"jit.compile_ms", Sum.JitCompileMs, "ms"},
      {"jit.code_bytes", static_cast<double>(Sum.CodeBytes), "bytes"},
      {"jit.native_share",
       Ratio(static_cast<double>(Sum.JitDispatches),
             static_cast<double>(Sum.JitDispatches + Sum.InterpDispatches)),
       "ratio"},
      {"runtime.host_ms", Sum.HostMs, "ms"},
      {"runtime.marshal_bytes", static_cast<double>(Sum.MarshalBytes), "bytes"},
      {"runtime.sim_comm_ms", Sum.SimCommNs / 1e6, "ms"},
      {"service.submit_hit_ms_p99", percentileOf(SubmitHit, 99), "ms"},
      {"service.submit_miss_ms_p50", median(SubmitMiss), "ms"},
      {"service.wait_ms_p50", median(Wait), "ms"},
      {"service.hit_ms_tail", HitTail.Value, "ms"},
      {"service.cache_hit_ratio",
       Ratio(static_cast<double>(Traced.CacheHits),
             static_cast<double>(Traced.CacheHits + Traced.CacheMisses)),
       "ratio"},
      {"service.launches_per_req",
       Ratio(static_cast<double>(Traced.Launches),
             static_cast<double>(Traced.Requests)),
       "ratio"},
      {"service.fell_back", static_cast<double>(Traced.FellBack), "count"},
      {"process.cpu_ms_per_req", Ratio(Untraced.CpuMs, Requests), "ms"},
      {"trace.overhead_pct",
       100.0 * (Ratio(Traced.WallS, Untraced.WallS) - 1.0), "%"},
  };
}

bool parseOptions(int Argc, char **Argv, Options &Opt) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    if (A == "--workload")
      Opt.Workload = V;
    else if (A == "--seed")
      Opt.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      Opt.Seconds = std::atof(V.c_str());
    else if (A == "--trace")
      Opt.Trace = V == "1";
    else if (A == "--trace-out")
      Opt.TraceOut = V;
    else if (A == "--counts-dir")
      Opt.CountsDir = V;
    else if (A == "--build-id")
      Opt.BuildId = V;
    else
      return false;
  }
  return !Opt.Workload.empty() && Opt.Seconds > 0;
}

int run(const Options &Opt, Clock::time_point Start) {
  std::unique_ptr<Workload> WL = makeWorkload(Opt.Workload);
  if (!WL) {
    std::fprintf(stderr, "unknown workload '%s'\n", Opt.Workload.c_str());
    return 2;
  }
  uint32_t Passes = static_cast<uint32_t>(
      std::max(1.0, std::round(Opt.Seconds / WL->nominalPassSeconds())));
  if (WL->serial())
    pinToOneCpu(); // before setup starts any service worker
  Tracer T(Opt.Trace);

  // Set up several times and report the median; the first repetition
  // counts from process start. The last one is measured.
  constexpr int SetupReps = 3;
  std::vector<double> SetupS;
  std::vector<double> Frontend, Reference;
  for (int Rep = 0; Rep != SetupReps; ++Rep) {
    Clock::time_point T0 = Rep ? Clock::now() : Start;
    WL->setup(T);
    SetupS.push_back(msSince(T0) / 1e3);
    Frontend.push_back(WL->FrontendMs);
    Reference.push_back(WL->ReferenceMs);
  }
  WL->FrontendMs = median(Frontend);
  WL->ReferenceMs = median(Reference);

  std::printf("# ledger %s seed=%llu passes=%u kernels=%zu trace=%d\n",
              WL->name(), static_cast<unsigned long long>(Opt.Seed), Passes,
              WL->Kernels.size(), Opt.Trace ? 1 : 0);

  T.setRecording(false);
  Phase Untraced = WL->measure(Passes, Opt.Seed, T);
  Outcomes Out = Untraced.Out;
  std::vector<Metric> Metrics = endToEnd(*WL, Untraced, median(SetupS));

  // Simulated totals are counts only where each request is one launch
  // in an order the seed cannot change (not under two racing clients).
  std::vector<std::pair<std::string, std::string>> Counts;
  if (!Untraced.SimKernelNs.empty()) {
    Counts.emplace_back("ocl.sim_kernel_ms", fixed(Untraced.SimKernelTotalNs / 1e6, 6));
    Counts.emplace_back("runtime.sim_comm_ms", fixed(Untraced.SimCommTotalNs / 1e6, 6));
    Counts.emplace_back("runtime.marshal_bytes[measured]",
                        std::to_string(Untraced.MarshalBytes));
  }

  std::vector<ProbeRow> Probe;
  if (Opt.Trace) {
    T.setRecording(true);
    Phase Traced = WL->measure(Passes, Opt.Seed, T);
    WL->serviceLeg(Traced, T);
    for (uint32_t K = 0; K != WL->Kernels.size(); ++K)
      Probe.push_back(probeKernel(WL->Kernels[K], ProbeRequestBase + K, T,
                                  Traced.Out));
    Out.Attempted += Traced.Out.Attempted;
    Out.Traps += Traced.Out.Traps;
    Out.Rejections += Traced.Out.Rejections;
    Out.Mismatches += Traced.Out.Mismatches;
    Metrics = perLayer(*WL, Untraced, Traced, Probe);
    std::printf("self time by span (ms):\n");
    for (const auto &[Name, Ms] : selfTimeByName(T.spans()))
      std::printf("  %-48s %12.3f\n", Name.c_str(), Ms);
    // The probe's counts: one fixed sequence of calls per kernel.
    for (const Metric &M : Metrics)
      for (const char *Name :
           {"compiler.opencl_bytes", "analysis.findings", "bc.proof_coverage",
            "jit.code_bytes", "runtime.marshal_bytes", "ocl.sim_kernel_ms",
            "runtime.sim_comm_ms"})
        if (M.Name == Name)
          Counts.emplace_back(M.Name + "[probe]", fixed(M.Value, 6));
    if (!Opt.TraceOut.empty() && !T.writeChromeJson(Opt.TraceOut))
      std::fprintf(stderr, "cannot write %s\n", Opt.TraceOut.c_str());
  }

  printKernelRows(*WL, Untraced, Opt.Trace ? &Probe : nullptr);
  checkCounts(Counts, Opt,
              std::string(WL->name()) + "-p" + std::to_string(Passes) + "-t" +
                  (Opt.Trace ? "1" : "0"));
  std::printf("fail_ratio %.6f (%llu traps, %llu typed rejections, %llu "
              "mismatches of %llu attempted)\n",
              Out.failRatio(), static_cast<unsigned long long>(Out.Traps),
              static_cast<unsigned long long>(Out.Rejections),
              static_cast<unsigned long long>(Out.Mismatches),
              static_cast<unsigned long long>(Out.Attempted));
  printResult(Out.failed() == 0, Out.Attempted, Out.failed(), Metrics);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Clock::time_point Start = Clock::now();
  Options Opt;
  if (!parseOptions(Argc, Argv, Opt)) {
    std::fprintf(stderr,
                 "usage: ledger_driver --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--counts-dir DIR "
                 "--build-id ID]\n");
    return 2;
  }
  try {
    return run(Opt, Start);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "ledger: %s\n", E.what());
    return 1;
  }
}

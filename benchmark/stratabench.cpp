//===- benchmark/stratabench.cpp - End-to-end simulator benchmark -*- C++ -*-===//
//
// Part of StrataIB. See benchmark/README.md for the metric glossary.
//
// stratabench measures the simulator the way a design-space sweep uses it:
// one process, one thread, a closed loop over (program x SDT config) cells
// run back to back. One run of one workload:
//
//   1. set-up, repeated at least SetupReps times and for SetupMinSeconds:
//      build every program and run its native baseline (setup_s is the
//      median repetition);
//   2. one untimed warm-up pass. Only the host warms up: every cell still
//      starts from empty modeled caches and tables, as in the paper;
//   3. timed passes until --seconds have elapsed (at least MinPasses),
//      each over a freshly seed-shuffled cell order. Every cell gets a
//      fresh TimingModel and SdtEngine, runs, and is checked against its
//      native run;
//   4. with --traced, one more pass that records spans around every call
//      the benchmark makes into src/, plus the replays and reruns that
//      attribute host time to layers and check plan-vs-switch identity.
//
// Host time is attributed by timing the benchmark's own calls into each
// module's public API; nothing inside src/ is instrumented.
//
//===----------------------------------------------------------------------===//

#include "arch/MachineModel.h"
#include "arch/Timing.h"
#include "core/SdtEngine.h"
#include "exec/ExecutionPlan.h"
#include "plugin/PluginManager.h"
#include "support/Hashing.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "trace/TraceExport.h"
#include "trace/TraceSink.h"
#include "vm/GuestVM.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <malloc.h>

#include <algorithm>
#include <array>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

using namespace sdt;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

constexpr unsigned SetupReps = 5;
/// Set-up also repeats until this much time has passed, so that the
/// shortest one (churn's, about 0.1 s) takes its median over seconds of
/// host time rather than half a second of a host whose speed drifts.
constexpr double SetupMinSeconds = 2.0;
constexpr unsigned MinPasses = 3;
constexpr uint32_t SmokeScale = 2;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Config {
  std::string Label;
  core::SdtOptions Opts;
};

struct WorkloadDef {
  const char *Name;
  std::vector<std::string> Programs;
  std::vector<Config> Configs;
  uint32_t BaseScale;
  /// Every cell runs with a TraceSink and ObservePlugins attached.
  bool Observed;
};

/// Program name of churn's seeded workloads::generateRandomProgram guest.
constexpr const char *RandomGuest = "random";
constexpr const char *ObservePlugins = "coverage,ibedges,memcheck";

/// The paper's Fig. 2 mechanism axis plus fast returns.
std::vector<Config> ibConfigs() {
  Config Disp{"dispatcher", {}};
  Disp.Opts.Mechanism = core::IBMechanism::Dispatcher;
  Config Ibtc{"ibtc", {}};
  Config Sieve{"sieve", {}};
  Sieve.Opts.Mechanism = core::IBMechanism::Sieve;
  Config Inline{"ibtc+inline2", {}};
  Inline.Opts.InlineCacheDepth = 2;
  Config FastRet{"ibtc+fast-return", {}};
  FastRet.Opts.Returns = core::ReturnStrategy::FastReturn;
  return {Disp, Ibtc, Sieve, Inline, FastRet};
}

/// Small caches with traces, optimization and speculation on, so
/// translation, eviction and plan rebuilds repeat throughout each run. The
/// sieve gets 256 buckets: 4096 buckets of stubs overflow a 16 KiB cache
/// and flush on every translation, which measures nothing useful.
std::vector<Config> churnConfigs() {
  std::vector<Config> Cs;
  for (cachemgr::CachePolicyKind Policy :
       {cachemgr::CachePolicyKind::FullFlush, cachemgr::CachePolicyKind::Fifo,
        cachemgr::CachePolicyKind::Generational}) {
    std::string Suffix = std::string("/") + cachemgr::cachePolicyName(Policy);
    Config Ibtc{"ibtc@16KiB" + Suffix, {}};
    Ibtc.Opts.FragmentCacheBytes = 16 << 10;
    Config Sieve{"sieve256@32KiB" + Suffix, {}};
    Sieve.Opts.Mechanism = core::IBMechanism::Sieve;
    Sieve.Opts.SieveBuckets = 256;
    Sieve.Opts.FragmentCacheBytes = 32 << 10;
    for (Config *C : {&Ibtc, &Sieve}) {
      C->Opts.CachePolicy = Policy;
      C->Opts.EnableTraces = true;
      C->Opts.OptimizeTraces = true;
      C->Opts.TraceSpeculate = true;
      Cs.push_back(*C);
    }
  }
  return Cs;
}

std::vector<Config> observedConfigs() {
  std::vector<Config> Cs;
  for (const Config &C : ibConfigs())
    if (C.Label == "dispatcher" || C.Label == "ibtc" ||
        C.Label == "ibtc+inline2")
      Cs.push_back(C);
  return Cs;
}

const std::vector<WorkloadDef> &workloadDefs() {
  static const std::vector<WorkloadDef> Defs = {
      {"ib_dense",
       {"gcc", "vortex", "eon", "perlbmk", "gap", "parser"},
       ibConfigs(),
       60,
       false},
      {"low_ib", {"gzip", "mcf", "bzip2"}, ibConfigs(), 60, false},
      {"churn",
       {"bigcode", "hotcold", "smcpatch", "smctable", RandomGuest},
       churnConfigs(),
       28,
       false},
      {"observed",
       {"gcc", "perlbmk", "eon", "mcf", "bzip2", "gzip"},
       observedConfigs(),
       40,
       true},
  };
  return Defs;
}

/// Guest instructions churn's random guest retires per unit of scale.
constexpr uint64_t RandomGuestInstrsPerScale = 4000;

/// Churn's seeded random guest: an ~8 KB image, so its translations
/// overflow churn's small caches. Its call tree's length varies about 30x
/// by seed, so the main-loop count is fitted to a fixed instruction budget;
/// otherwise one seed's guest would swamp the pass and the seed-to-seed
/// spread of sweep_s.
Expected<isa::Program> buildRandomGuest(uint64_t Seed, uint32_t Scale) {
  workloads::RandomProgramOptions O;
  O.NumFunctions = 24;
  O.ItemsPerFunction = 8;
  O.AllowIndirectCalls = true;
  O.AllowIndirectJumps = true;
  O.MainIterations = 1;
  Expected<isa::Program> Probe = workloads::generateRandomProgram(Seed, O);
  if (!Probe)
    return Probe;
  auto VM = vm::GuestVM::create(*Probe, vm::ExecOptions());
  if (!VM)
    return VM.takeError();
  uint64_t PerIteration = std::max<uint64_t>((*VM)->run().InstructionCount, 1);
  O.MainIterations = static_cast<unsigned>(std::clamp<uint64_t>(
      RandomGuestInstrsPerScale * Scale / PerIteration, 1, 1000));
  return workloads::generateRandomProgram(Seed, O);
}

// ---------------------------------------------------------------------------
// Seeded inputs and digests
// ---------------------------------------------------------------------------

constexpr uint64_t FnvBasis = 0xcbf29ce484222325ULL;

uint64_t fnv1a(const void *Data, size_t Bytes, uint64_t H = FnvBasis) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Bytes; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ULL;
  }
  return H;
}

uint64_t fnv1a(const std::string &S, uint64_t H = FnvBasis) {
  return fnv1a(S.data(), S.size(), H);
}

uint64_t hashWord(uint64_t H, uint64_t V) { return fnv1a(&V, sizeof(V), H); }

std::string hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// Largest live heap seen at a sample point, in bytes.
uint64_t PeakHeapBytes = 0;

/// Samples the live heap: bytes in use in the arena plus mmapped chunks.
/// Unlike max RSS this does not depend on where glibc happened to place a
/// freed 16 MiB guest memory, which made RSS flip between two levels from
/// one seed to the next.
void sampleHeap() {
  struct mallinfo2 M = mallinfo2();
  PeakHeapBytes = std::max<uint64_t>(PeakHeapBytes, M.uordblks + M.hblkhd);
}

/// Per-program scale jitter: base + hash(seed, program) % 4.
uint32_t programScale(uint32_t Base, uint64_t Seed, const std::string &Name) {
  return Base + static_cast<uint32_t>(mix64(Seed ^ fnv1a(Name)) % 4);
}

/// The cell order of pass \p Pass: a Fisher-Yates shuffle driven by the
/// repo's portable Rng, so an order is the same on every toolchain.
std::vector<size_t> cellOrder(size_t N, uint64_t Seed, uint64_t Pass) {
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), size_t(0));
  Rng R(mix64(Seed) ^ mix64(Pass + 1));
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBelow(I)]);
  return Order;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// In-memory span log for the traced run. Spans nest strictly: a span's
/// parent is the innermost span still open when it began. Names are
/// "<layer>.<call>", where the layer is a src/ module or "bench".
class SpanLog {
public:
  struct Span {
    const char *Name;
    double StartUs;
    double EndUs;
    int Parent;
    int Cell; ///< Canonical cell index, or -1 outside any cell.
  };

  SpanLog() : Origin(Clock::now()) {}

  int open(const char *Name, int Cell) {
    int Parent = Stack.empty() ? -1 : Stack.back();
    Spans.push_back({Name, nowUs(), 0.0, Parent, Cell});
    Stack.push_back(static_cast<int>(Spans.size()) - 1);
    return Stack.back();
  }

  void close(int Id) {
    assert(!Stack.empty() && Stack.back() == Id && "spans must nest");
    Spans[Id].EndUs = nowUs();
    Stack.pop_back();
  }

  const std::vector<Span> &spans() const { return Spans; }

  static std::string layerOf(const char *Name) {
    const char *Dot = std::strchr(Name, '.');
    return Dot ? std::string(Name, Dot) : std::string(Name);
  }

  /// Per layer: its spans' time minus the part their child spans cover.
  std::map<std::string, double> selfMsByLayer() const {
    std::vector<double> ChildUs(Spans.size(), 0.0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        ChildUs[S.Parent] += S.EndUs - S.StartUs;
    std::map<std::string, double> Self;
    for (size_t I = 0; I != Spans.size(); ++I)
      Self[layerOf(Spans[I].Name)] +=
          (Spans[I].EndUs - Spans[I].StartUs - ChildUs[I]) / 1000.0;
    return Self;
  }

private:
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - Origin)
        .count();
  }

  Clock::time_point Origin;
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// Times one call. Always measures (every pass needs run() host time);
/// records a span only when a log is attached.
class Timer {
public:
  Timer(SpanLog *Log, const char *Name, int Cell = -1)
      : Log(Log), Start(Clock::now()) {
    if (Log)
      Id = Log->open(Name, Cell);
  }
  ~Timer() { stop(); }
  Timer(const Timer &) = delete;
  Timer &operator=(const Timer &) = delete;

  /// Ends the span (idempotent) and returns its length in milliseconds.
  double stop() {
    if (!Stopped) {
      Ms = std::chrono::duration<double, std::milli>(Clock::now() - Start)
               .count();
      Stopped = true;
      if (Log)
        Log->close(Id);
    }
    return Ms;
  }

private:
  SpanLog *Log;
  Clock::time_point Start;
  int Id = -1;
  bool Stopped = false;
  double Ms = 0.0;
};

// ---------------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------------

/// Every modeled field bench/e20_sim_throughput.cpp's firstModeledMismatch
/// compares, in its order. Plan-vs-switch identity, pass-to-pass
/// determinism and modeled_digest are all defined over this list.
#define STRATABENCH_MODELED_FIELDS(X)                                          \
  X(NativeCycles)                                                              \
  X(SdtCycles)                                                                 \
  X(SdtByCategory)                                                             \
  X(Instructions)                                                              \
  X(Transparent)                                                               \
  X(MainLookups)                                                               \
  X(MainHits)                                                                  \
  X(SdtIndirectLookups)                                                        \
  X(SdtIndirectMispredicts)                                                    \
  X(SdtReturnLookups)                                                          \
  X(SdtReturnMispredicts)                                                      \
  X(Stats.FragmentsTranslated)                                                 \
  X(Stats.GuestInstrsTranslated)                                               \
  X(Stats.DispatchEntries)                                                     \
  X(Stats.LinksPatched)                                                        \
  X(Stats.Syscalls)                                                            \
  X(Stats.IBExecs)                                                             \
  X(Stats.IBInlineHits)                                                        \
  X(Stats.FastReturnDirect)                                                    \
  X(Stats.FastReturnFallback)                                                  \
  X(Stats.ShadowStackHits)                                                     \
  X(Stats.ShadowStackMisses)                                                   \
  X(Stats.LinksUnlinked)                                                       \
  X(Stats.Flushes)                                                             \
  X(Stats.PartialEvictions)                                                    \
  X(Stats.EvictedBytes)                                                        \
  X(Stats.RetranslationsAfterEviction)                                         \
  X(Stats.CodeWriteInvalidations)                                              \
  X(Stats.FragmentsInvalidatedByWrite)                                         \
  X(Stats.StaleBytesDiscarded)                                                 \
  X(Stats.TracesBuilt)                                                         \
  X(Stats.TracesOptimized)                                                     \
  X(Stats.SpecGuardsEmitted)                                                   \
  X(Stats.SpecGuardHits)                                                       \
  X(Stats.SpecGuardMisses)

struct Modeled {
  uint64_t NativeCycles = 0;
  uint64_t SdtCycles = 0;
  std::array<uint64_t, size_t(arch::CycleCategory::NumCategories)>
      SdtByCategory{};
  uint64_t Instructions = 0;
  bool Transparent = false;
  uint64_t MainLookups = 0;
  uint64_t MainHits = 0;
  uint64_t SdtIndirectLookups = 0;
  uint64_t SdtIndirectMispredicts = 0;
  uint64_t SdtReturnLookups = 0;
  uint64_t SdtReturnMispredicts = 0;
  core::SdtStats Stats;
};

/// Null when every modeled field matches, else the first differing one.
const char *firstModeledMismatch(const Modeled &A, const Modeled &B) {
#define STRATABENCH_EQ(Field)                                                  \
  if (A.Field != B.Field)                                                      \
    return #Field;
  STRATABENCH_MODELED_FIELDS(STRATABENCH_EQ)
#undef STRATABENCH_EQ
  return nullptr;
}

uint64_t hashField(uint64_t H, uint64_t V) { return hashWord(H, V); }
template <size_t N>
uint64_t hashField(uint64_t H, const std::array<uint64_t, N> &A) {
  for (uint64_t V : A)
    H = hashWord(H, V);
  return H;
}

uint64_t modeledHash(const Modeled &M) {
  uint64_t H = FnvBasis;
#define STRATABENCH_HASH(Field) H = hashField(H, M.Field);
  STRATABENCH_MODELED_FIELDS(STRATABENCH_HASH)
#undef STRATABENCH_HASH
  return H;
}

/// One program, built and run natively by the set-up.
struct Guest {
  std::string Name;
  uint32_t Scale = 0;
  isa::Program Program;
  vm::RunResult Native;
  uint64_t NativeCycles = 0;
};

/// Everything one cell execution produced.
struct CellRun {
  Modeled M;
  std::string Failure; ///< Empty when the cell passed its checks.
  uint64_t GuestInstrs = 0;
  double CreateMs = 0.0;
  double RunMs = 0.0;
  bool OnPlanEngine = false;
  exec::PlanStats Plan;
  /// Top-level mechanisms only: an inline cache counts its backing
  /// mechanism's hits as its own.
  uint64_t IbLookups = 0;
  uint64_t IbHits = 0;
  uint64_t ICacheAccesses = 0;
  uint64_t ICacheMisses = 0;
  uint64_t DCacheAccesses = 0;
  uint64_t DCacheMisses = 0;
  uint64_t TraceEvents = 0;
  uint64_t TraceDropped = 0;
  // Traced-run analysis; zero unless requested.
  double AnalysisMs = 0.0;
  double ExportMs = 0.0;
  uint64_t ExportBytes = 0;
  double ReportMs = 0.0;
  double PrewarmMs = 0.0;
  uint64_t PrewarmInstrs = 0; ///< Guest instructions the replay translated.
  double PlanReplayMs = 0.0;
  uint64_t PlanReplayOps = 0; ///< Host ops the replay planned.
};

/// What runCell does after create + run + check (traced run only).
struct Analysis {
  /// Observed runs: render the sink as Chrome JSON + JSONL and build the
  /// plugin report, all in memory, so export is host work, not disk.
  bool Export = false;
  /// Replay SdtEngine::prewarm and PlanStore::planFor over the run's live
  /// fragments to measure translate cost per guest instruction and
  /// plan-build cost per host op.
  bool Replay = false;
};

/// The first observable field where \p Sdt differs from native, or null.
const char *transparencyMismatch(const vm::RunResult &Native,
                                 const vm::RunResult &Sdt) {
  if (Sdt.Reason != Native.Reason)
    return "exit reason";
  if (Sdt.Output != Native.Output)
    return "output";
  if (Sdt.Checksum != Native.Checksum)
    return "checksum";
  if (Sdt.InstructionCount != Native.InstructionCount)
    return "instruction count";
  return nullptr;
}

void exportAndReport(const trace::TraceSink *Sink,
                     const plugin::PluginManager *Plugins, CellRun &R,
                     SpanLog *Log, int CellId) {
  if (Sink) {
    Timer T(Log, "trace.export", CellId);
    std::string Chrome = trace::chromeTraceJson(*Sink);
    std::string Jsonl;
    Sink->forEach([&Jsonl](const trace::TraceEvent &E) {
      Jsonl += trace::jsonlLine(E);
      Jsonl += '\n';
    });
    Jsonl += trace::jsonlSummaryLine(*Sink, nullptr);
    R.ExportMs = T.stop();
    R.ExportBytes = Chrome.size() + Jsonl.size();
  }
  if (Plugins) {
    Timer T(Log, "plugin.reportJson", CellId);
    std::string Report = Plugins->reportJson();
    R.ReportMs = T.stop();
  }
}

void replay(core::SdtEngine &E, const Guest &G, const core::SdtOptions &Opts,
            const arch::TimingModel &Timing, CellRun &R, SpanLog *Log,
            int CellId) {
  const core::FragmentCache &Cache = E.fragmentCache();
  std::vector<uint32_t> Live;
  core::PrewarmImage Image;
  for (uint32_t I = 0; I != Cache.fragmentCount(); ++I)
    if (Cache.isLive(I)) {
      Live.push_back(I);
      Image.FragmentEntries.push_back(Cache.fragment(I).GuestEntry);
    }

  core::SdtOptions Unbounded = Opts;
  Unbounded.FragmentCacheBytes = 1u << 30;
  arch::TimingModel FreshTiming(Timing.model());
  vm::ExecOptions Exec;
  Exec.Timing = &FreshTiming;
  auto Fresh = core::SdtEngine::create(G.Program, Unbounded, Exec);
  if (Fresh) {
    Timer T(Log, "core.SdtEngine::prewarm", CellId);
    (*Fresh)->prewarm(Image);
    R.PrewarmMs = T.stop();
    R.PrewarmInstrs = (*Fresh)->stats().GuestInstrsTranslated;
  }

  if (Live.empty())
    return;
  // The store's first planFor sizes its table to every fragment index the
  // run ever used, tombstones included; in the run that growth was spread
  // over the whole run, so keep it out of the per-op rate.
  exec::PlanStore Store;
  Store.planFor(Cache, Live.back(), {}, &Timing);
  uint64_t OpsBefore = Store.stats().FusedOps + Store.stats().StepOps;
  Live.pop_back();
  Timer T(Log, "exec.PlanStore::planFor", CellId);
  for (uint32_t I : Live)
    Store.planFor(Cache, I, {}, &Timing);
  R.PlanReplayMs = T.stop();
  R.PlanReplayOps = Store.stats().FusedOps + Store.stats().StepOps - OpsBefore;
}

/// Runs one cell: a fresh timing model and engine, run(), then the checks,
/// all inside one span named \p SpanName; then the requested analysis.
CellRun runCell(const Guest &G, const core::SdtOptions &Opts, bool Observed,
                const arch::MachineModel &Model, SpanLog *Log, int CellId,
                const char *SpanName, Analysis A = {}) {
  CellRun R;
  Timer CellT(Log, SpanName, CellId);
  arch::TimingModel Timing(Model);
  vm::ExecOptions Exec;
  Exec.Timing = &Timing;

  std::unique_ptr<core::SdtEngine> E;
  {
    Timer T(Log, "core.SdtEngine::create", CellId);
    auto Created = core::SdtEngine::create(G.Program, Opts, Exec);
    R.CreateMs = T.stop();
    if (!Created) {
      R.Failure = "engine create: " + Created.error().message();
      return R;
    }
    E = std::move(*Created);
  }

  std::unique_ptr<plugin::PluginManager> Plugins;
  std::unique_ptr<trace::TraceSink> Sink;
  if (Observed) {
    auto Mgr = plugin::createPluginManager(ObservePlugins);
    if (!Mgr) {
      R.Failure = "plugins: " + Mgr.error().message();
      return R;
    }
    Plugins = std::move(*Mgr);
    Sink = std::make_unique<trace::TraceSink>();
    E->setPlugins(Plugins.get());
    E->setTraceSink(Sink.get());
  }

  vm::RunResult Out;
  {
    Timer T(Log, "core.SdtEngine::run", CellId);
    Out = E->run();
    R.RunMs = T.stop();
  }
  sampleHeap(); // The engine is at its largest when run() returns.

  {
    Timer T(Log, "bench.check", CellId);
    Modeled &M = R.M;
    M.NativeCycles = G.NativeCycles;
    M.SdtCycles = Timing.totalCycles();
    for (size_t I = 0; I != M.SdtByCategory.size(); ++I)
      M.SdtByCategory[I] = Timing.cycles(static_cast<arch::CycleCategory>(I));
    M.Instructions = G.Native.InstructionCount;
    const char *Mismatch = transparencyMismatch(G.Native, Out);
    M.Transparent = Mismatch == nullptr;
    M.MainLookups = E->mainHandler().lookups();
    M.MainHits = E->mainHandler().hits();
    const arch::BranchPredictor &Pred = Timing.predictor();
    M.SdtIndirectLookups = Pred.indirectLookups();
    M.SdtIndirectMispredicts = Pred.indirectMispredicts();
    M.SdtReturnLookups = Pred.returnLookups();
    M.SdtReturnMispredicts = Pred.returnMispredicts();
    M.Stats = E->stats();
    if (Mismatch)
      R.Failure = std::string("transparency: ") + Mismatch +
                  " differs from native (translated run: " +
                  vm::exitReasonName(Out.Reason) + " " + Out.FaultMessage +
                  ")";

    R.GuestInstrs = Out.InstructionCount;
    R.OnPlanEngine = E->activeEngine() == core::ExecEngineKind::Plan;
    if (const exec::PlanStats *PS = E->planStats())
      R.Plan = *PS;
    for (core::IBHandler *H : E->allHandlers()) {
      R.IbLookups += H->lookups();
      R.IbHits += H->hits();
    }
    R.ICacheAccesses = Timing.icache().accesses();
    R.ICacheMisses = Timing.icache().misses();
    R.DCacheAccesses = Timing.dcache().accesses();
    R.DCacheMisses = Timing.dcache().misses();
    if (Sink) {
      R.TraceEvents = Sink->totalCount();
      R.TraceDropped = Sink->droppedCount();
    }
  }
  CellT.stop();

  if (A.Export || A.Replay) {
    Timer T(Log, "bench.analysis", CellId);
    if (A.Export)
      exportAndReport(Sink.get(), Plugins.get(), R, Log, CellId);
    if (A.Replay)
      replay(*E, G, Opts, Timing, R, Log, CellId);
    R.AnalysisMs = T.stop();
  }
  return R;
}

// ---------------------------------------------------------------------------
// Set-up and passes
// ---------------------------------------------------------------------------

struct SetupRep {
  std::vector<Guest> Guests;
  double WallS = 0.0;
  double BuildMs = 0.0;
  double NativeMs = 0.0;
  uint64_t NativeInstrs = 0;
};

/// Builds every program of \p W and runs each natively. A program that
/// fails to build, or whose native run does not finish normally, is a
/// broken benchmark rather than a failed cell: diagnose, return nullopt.
std::optional<SetupRep> setUp(const WorkloadDef &W, uint32_t BaseScale,
                              uint64_t Seed, const arch::MachineModel &Model,
                              SpanLog *Log) {
  SetupRep Rep;
  Timer Wall(Log, "bench.setup");
  for (const std::string &Name : W.Programs) {
    Guest G;
    G.Name = Name;
    G.Scale = programScale(BaseScale, Seed, Name);
    {
      Timer T(Log, "workloads.buildWorkload");
      Expected<isa::Program> P = Name == RandomGuest
                                     ? buildRandomGuest(Seed, G.Scale)
                                     : workloads::buildWorkload(Name, G.Scale);
      Rep.BuildMs += T.stop();
      if (!P) {
        std::fprintf(stderr, "stratabench: cannot build %s: %s\n",
                     Name.c_str(), P.error().message().c_str());
        return std::nullopt;
      }
      G.Program = std::move(*P);
    }
    {
      Timer T(Log, "vm.GuestVM::run");
      arch::TimingModel Timing(Model);
      vm::ExecOptions Exec;
      Exec.Timing = &Timing;
      auto VM = vm::GuestVM::create(G.Program, Exec);
      if (!VM) {
        std::fprintf(stderr, "stratabench: cannot load %s: %s\n",
                     Name.c_str(), VM.error().message().c_str());
        return std::nullopt;
      }
      G.Native = (*VM)->run();
      G.NativeCycles = Timing.totalCycles();
      Rep.NativeMs += T.stop();
    }
    if (!G.Native.finishedNormally()) {
      std::fprintf(stderr, "stratabench: native %s did not finish: %s\n",
                   Name.c_str(), G.Native.FaultMessage.c_str());
      return std::nullopt;
    }
    Rep.NativeInstrs += G.Native.InstructionCount;
    Rep.Guests.push_back(std::move(G));
  }
  Rep.WallS = Wall.stop() / 1000.0;
  sampleHeap();
  return Rep;
}

struct Pass {
  std::vector<CellRun> Runs; ///< Canonical cell order.
  double WallS = 0.0;
};

/// The traced pass: its own cells plus, per cell, a switch-engine rerun
/// and, on an observed workload, a bare rerun (no sink, no plugins).
struct TracedPass {
  Pass Own;
  std::vector<CellRun> Switch;
  std::vector<CellRun> Bare; ///< Empty unless the workload is observed.
  /// Pass wall minus analysis and reruns: comparable to an untimed pass.
  double ComparableWallS = 0.0;
};

class Sweep {
public:
  Sweep(const WorkloadDef &W, std::vector<Guest> Guests, uint64_t Seed,
        const arch::MachineModel &Model)
      : W(W), Guests(std::move(Guests)), Seed(Seed), Model(Model) {
    for (size_t G = 0; G != this->Guests.size(); ++G)
      for (size_t C = 0; C != W.Configs.size(); ++C)
        Cells.push_back({G, C});
  }

  size_t size() const { return Cells.size(); }
  const Guest &guest(size_t I) const { return Guests[Cells[I].Guest]; }
  const Config &config(size_t I) const { return W.Configs[Cells[I].Config]; }
  std::string cellName(size_t I) const {
    return guest(I).Name + "/" + config(I).Label;
  }
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

  /// One pass over every cell in pass \p Index's order. Every cell's
  /// modeled result must equal the one it produced in the first pass.
  Pass run(uint64_t Index) {
    Pass P;
    P.Runs.resize(Cells.size());
    auto Start = Clock::now();
    for (size_t I : cellOrder(Cells.size(), Seed, Index))
      P.Runs[I] = runOwn(I, nullptr, {});
    P.WallS = std::chrono::duration<double>(Clock::now() - Start).count();
    for (size_t I = 0; I != Cells.size(); ++I)
      check(I, P.Runs[I], Index);
    return P;
  }

  TracedPass runTraced(uint64_t Index, SpanLog &Log) {
    TracedPass TP;
    TP.Own.Runs.resize(Cells.size());
    TP.Switch.resize(Cells.size());
    if (W.Observed)
      TP.Bare.resize(Cells.size());
    double AsideMs = 0.0; // Analysis and reruns: not part of a plain pass.
    Timer PassT(&Log, "bench.pass");
    for (size_t I : cellOrder(Cells.size(), Seed, Index)) {
      int Id = static_cast<int>(I);
      TP.Own.Runs[I] = runOwn(I, &Log, {/*Export=*/true, /*Replay=*/true});
      AsideMs += TP.Own.Runs[I].AnalysisMs;
      Timer RerunT(&Log, "bench.reruns", Id);
      core::SdtOptions Switch = config(I).Opts;
      Switch.Engine = core::ExecEngineKind::Switch;
      TP.Switch[I] = runCell(guest(I), Switch, W.Observed, Model, &Log, Id,
                             "bench.rerun_switch");
      ++Attempted;
      if (W.Observed) {
        TP.Bare[I] = runCell(guest(I), config(I).Opts, /*Observed=*/false,
                             Model, &Log, Id, "bench.rerun_bare");
        ++Attempted;
      }
      AsideMs += RerunT.stop();
    }
    TP.Own.WallS = PassT.stop() / 1000.0;
    TP.ComparableWallS = TP.Own.WallS - AsideMs / 1000.0;
    for (size_t I = 0; I != Cells.size(); ++I) {
      check(I, TP.Own.Runs[I], Index);
      std::string Why;
      if (!TP.Switch[I].Failure.empty())
        Why = "switch rerun: " + TP.Switch[I].Failure;
      else if (const char *F =
                   firstModeledMismatch(TP.Own.Runs[I].M, TP.Switch[I].M))
        Why = std::string("plan-vs-switch mismatch in ") + F;
      else if (W.Observed && !TP.Bare[I].Failure.empty())
        Why = "bare rerun: " + TP.Bare[I].Failure;
      if (!Why.empty())
        fail(I, Why, Index);
    }
    return TP;
  }

  /// FNV over each cell's modeled fields, in canonical cell order.
  uint64_t digest() const {
    uint64_t H = FnvBasis;
    for (uint64_t V : Reference)
      H = hashWord(H, V);
    return H;
  }

  /// FNV over every program image and scale: seeds must change it.
  uint64_t inputDigest() const {
    uint64_t H = FnvBasis;
    for (const Guest &G : Guests) {
      H = fnv1a(G.Name, hashWord(H, G.Scale));
      H = fnv1a(G.Program.image().data(), G.Program.image().size(), H);
    }
    return H;
  }

private:
  CellRun runOwn(size_t I, SpanLog *Log, Analysis A) {
    ++Attempted;
    return runCell(guest(I), config(I).Opts, W.Observed, Model, Log,
                   static_cast<int>(I), "bench.cell", A);
  }

  void check(size_t I, const CellRun &R, uint64_t Index) {
    if (!R.Failure.empty()) {
      fail(I, R.Failure, Index);
      return;
    }
    uint64_t H = modeledHash(R.M);
    if (Reference.empty())
      Reference.assign(Cells.size(), 0);
    if (Reference[I] == 0)
      Reference[I] = H;
    else if (Reference[I] != H)
      fail(I, "modeled result differs from the first pass", Index);
  }

  void fail(size_t I, const std::string &Why, uint64_t Index) {
    ++Failed;
    std::fprintf(stderr, "stratabench: FAIL %s %s (pass %llu): %s\n", W.Name,
                 cellName(I).c_str(), static_cast<unsigned long long>(Index),
                 Why.c_str());
  }

  const WorkloadDef &W;
  std::vector<Guest> Guests;
  uint64_t Seed;
  arch::MachineModel Model;
  struct Cell {
    size_t Guest;
    size_t Config;
  };
  std::vector<Cell> Cells;
  std::vector<uint64_t> Reference; ///< Per cell: first pass's modeledHash.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

/// Which BENCHMARK.json list a printed metric belongs to.
enum class Kind { EndToEnd, PerLayer, Info };

class Report {
public:
  void num(Kind K, const std::string &Name, double V, const char *Unit) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
    Lines.push_back({K, Name, Buf, Unit, true});
  }
  void text(const std::string &Name, const std::string &V) {
    Lines.push_back({Kind::Info, Name, V, "-", false});
  }

  void print() const {
    for (const Line &L : Lines)
      std::printf("%s %s %s\n", L.Name.c_str(), L.Value.c_str(),
                  L.Unit.c_str());
  }

  /// {"name": {"value": v, "unit": "u"}, ...} over the numeric lines of
  /// kind \p Only, or over all numeric lines when \p Only is null.
  std::string metricsJson(const Kind *Only) const {
    std::string Out = "{";
    for (const Line &L : Lines) {
      if (!L.Numeric || (Only && L.K != *Only))
        continue;
      if (Out.size() > 1)
        Out += ", ";
      Out += "\"" + L.Name + "\": {\"value\": " + L.Value + ", \"unit\": \"" +
             L.Unit + "\"}";
    }
    return Out + "}";
  }

  /// {"name": "value", ...} over the non-numeric lines.
  std::string textJson() const {
    std::string Out = "{";
    for (const Line &L : Lines)
      if (!L.Numeric) {
        if (Out.size() > 1)
          Out += ", ";
        Out += "\"" + L.Name + "\": \"" + L.Value + "\"";
      }
    return Out + "}";
  }

private:
  struct Line {
    Kind K;
    std::string Name;
    std::string Value;
    std::string Unit;
    bool Numeric;
  };
  std::vector<Line> Lines;
};

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

/// Quartiles exactly as Python's statistics.quantiles(V, n=4) computes
/// them (its default "exclusive" method), so the benchmark and compare.py
/// agree on spreads. A single value is its own quartiles.
std::array<double, 3> quartiles(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  long N = static_cast<long>(V.size());
  if (N < 2)
    return {V[0], V[0], V[0]};
  std::array<double, 3> Q{};
  for (long I = 1; I <= 3; ++I) {
    long J = std::clamp(I * (N + 1) / 4, 1L, N - 1);
    long Delta = I * (N + 1) - J * 4;
    Q[I - 1] = (V[J - 1] * double(4 - Delta) + V[J] * double(Delta)) / 4.0;
  }
  return Q;
}

double ratio(double Num, double Den) { return Den == 0.0 ? 0.0 : Num / Den; }

void addCount(Report &Rep, const char *Name, double V) {
  Rep.num(Kind::PerLayer, Name, V, "count");
}

/// The counters every cell run exposes, summed over one pass. All of them
/// are deterministic, so every pass of one seed yields the same values.
void addCounts(Report &Rep, const std::vector<CellRun> &Runs) {
  auto Sum = [&Runs](auto Field) {
    double S = 0.0;
    for (const CellRun &R : Runs)
      S += static_cast<double>(Field(R));
    return S;
  };
  using K = Kind;

  double IbExecs[core::NumIBClasses];
  for (unsigned C = 0; C != core::NumIBClasses; ++C)
    IbExecs[C] = Sum([C](const CellRun &R) { return R.M.Stats.IBExecs[C]; });
  double InlineHits = Sum([](const CellRun &R) {
    const core::SdtStats &S = R.M.Stats;
    return S.IBInlineHits[0] + S.IBInlineHits[1] + S.IBInlineHits[2] +
           S.FastReturnDirect + S.ShadowStackHits;
  });
  double IbLookups = Sum([](const CellRun &R) { return R.IbLookups; });
  double Translated =
      Sum([](const CellRun &R) { return R.M.Stats.FragmentsTranslated; });
  addCount(Rep, "core.dispatch_entries",
        Sum([](const CellRun &R) { return R.M.Stats.DispatchEntries; }));
  addCount(Rep, "core.ib_execs.jump", IbExecs[0]);
  addCount(Rep, "core.ib_execs.call", IbExecs[1]);
  addCount(Rep, "core.ib_execs.return", IbExecs[2]);
  addCount(Rep, "core.ib_lookups", IbLookups);
  Rep.num(K::PerLayer, "core.ib_hit_rate",
          ratio(Sum([](const CellRun &R) { return R.IbHits; }), IbLookups),
          "ratio");
  Rep.num(K::PerLayer, "core.inline_hit_rate",
          ratio(InlineHits, IbExecs[0] + IbExecs[1] + IbExecs[2]), "ratio");
  addCount(Rep, "core.links_patched",
        Sum([](const CellRun &R) { return R.M.Stats.LinksPatched; }));
  addCount(Rep, "core.fragments_translated", Translated);

  double Fused = Sum([](const CellRun &R) { return R.Plan.FusedOps; });
  double Step = Sum([](const CellRun &R) { return R.Plan.StepOps; });
  addCount(Rep, "exec.plan_cells", Sum([](const CellRun &R) { return R.OnPlanEngine; }));
  addCount(Rep, "exec.fused_ops", Fused);
  addCount(Rep, "exec.step_ops", Step);
  Rep.num(K::PerLayer, "exec.fused_op_share", ratio(Fused, Fused + Step),
          "ratio");
  addCount(Rep, "exec.plans_built", Sum([](const CellRun &R) { return R.Plan.PlansBuilt; }));
  addCount(Rep, "exec.plans_rebuilt",
        Sum([](const CellRun &R) { return R.Plan.PlansRebuilt; }));
  addCount(Rep, "exec.legacy_fragments",
        Sum([](const CellRun &R) { return R.Plan.LegacyFragments; }));

  double GuardHits =
      Sum([](const CellRun &R) { return R.M.Stats.SpecGuardHits; });
  double GuardExecs = GuardHits + Sum([](const CellRun &R) {
                        return R.M.Stats.SpecGuardMisses;
                      });
  addCount(Rep, "opt.traces_built",
        Sum([](const CellRun &R) { return R.M.Stats.TracesBuilt; }));
  addCount(Rep, "opt.traces_optimized",
        Sum([](const CellRun &R) { return R.M.Stats.TracesOptimized; }));
  Rep.num(K::PerLayer, "opt.spec_guard_hit_rate", ratio(GuardHits, GuardExecs),
          "ratio");
  addCount(Rep, "opt.spec_guard_execs", GuardExecs);
  addCount(Rep, "opt.trace_instrs_eliminated", Sum([](const CellRun &R) {
          return R.M.Stats.traceInstrsEliminated();
        }));

  addCount(Rep, "cachemgr.flushes",
        Sum([](const CellRun &R) { return R.M.Stats.Flushes; }));
  addCount(Rep, "cachemgr.partial_evictions",
        Sum([](const CellRun &R) { return R.M.Stats.PartialEvictions; }));
  Rep.num(K::PerLayer, "cachemgr.evicted_bytes",
          Sum([](const CellRun &R) { return R.M.Stats.EvictedBytes; }), "B");
  addCount(Rep, "cachemgr.retranslations", Sum([](const CellRun &R) {
          return R.M.Stats.RetranslationsAfterEviction;
        }));
  addCount(Rep, "cachemgr.links_unlinked",
        Sum([](const CellRun &R) { return R.M.Stats.LinksUnlinked; }));
  addCount(Rep, "cachemgr.smc_invalidations", Sum([](const CellRun &R) {
          return R.M.Stats.CodeWriteInvalidations;
        }));

  double Cycles = Sum([](const CellRun &R) { return R.M.SdtCycles; });
  Rep.num(K::PerLayer, "arch.sim_mcycles", Cycles / 1e6, "Mcycles");
  static const std::pair<const char *, arch::CycleCategory> Shares[] = {
      {"arch.cycles_share.app", arch::CycleCategory::App},
      {"arch.cycles_share.translate", arch::CycleCategory::Translate},
      {"arch.cycles_share.dispatch", arch::CycleCategory::Dispatch},
      {"arch.cycles_share.iblookup", arch::CycleCategory::IBLookup},
      {"arch.cycles_share.link", arch::CycleCategory::Link},
      {"arch.cycles_share.instrument", arch::CycleCategory::Instrument},
  };
  for (const auto &[Name, Cat] : Shares)
    Rep.num(K::PerLayer, Name,
            ratio(Sum([Cat = Cat](const CellRun &R) {
                    return R.M.SdtByCategory[static_cast<size_t>(Cat)];
                  }),
                  Cycles),
            "ratio");
  double IAcc = Sum([](const CellRun &R) { return R.ICacheAccesses; });
  double DAcc = Sum([](const CellRun &R) { return R.DCacheAccesses; });
  double Preds = Sum([](const CellRun &R) {
    return R.M.SdtIndirectLookups + R.M.SdtReturnLookups;
  });
  Rep.num(K::PerLayer, "arch.icache_miss_rate",
          ratio(Sum([](const CellRun &R) { return R.ICacheMisses; }), IAcc),
          "ratio");
  addCount(Rep, "arch.icache_accesses", IAcc);
  Rep.num(K::PerLayer, "arch.dcache_miss_rate",
          ratio(Sum([](const CellRun &R) { return R.DCacheMisses; }), DAcc),
          "ratio");
  addCount(Rep, "arch.dcache_accesses", DAcc);
  Rep.num(K::PerLayer, "arch.ib_mispredict_rate",
          ratio(Sum([](const CellRun &R) {
                  return R.M.SdtIndirectMispredicts + R.M.SdtReturnMispredicts;
                }),
                Preds),
          "ratio");
  addCount(Rep, "arch.ib_predictions", Preds);
}

/// Host-time per-layer metrics of the traced run.
void addTracedTimes(Report &Rep, const TracedPass &TP, bool Observed,
                    const std::vector<SetupRep> &Setups, double UntracedSweepS,
                    const SpanLog &Log) {
  using K = Kind;
  std::vector<double> BuildMs, NativeMs;
  for (const SetupRep &S : Setups) {
    BuildMs.push_back(S.BuildMs);
    NativeMs.push_back(S.NativeMs);
  }
  double NativeMsMed = median(NativeMs);
  double NativeInstrs = static_cast<double>(Setups.front().NativeInstrs);
  Rep.num(K::PerLayer, "workloads.build_ms", median(BuildMs), "ms");
  Rep.num(K::PerLayer, "vm.native_ms", NativeMsMed, "ms");
  Rep.num(K::PerLayer, "vm.native_mips",
          ratio(NativeInstrs / 1e6, NativeMsMed / 1000.0), "Minstr/s");
  Rep.num(K::PerLayer, "vm.native_minstr", NativeInstrs / 1e6, "Minstr");

  const std::vector<CellRun> &Own = TP.Own.Runs;
  double CreateMs = 0, RunMs = 0, Instrs = 0, Cycles = 0;
  double PrewarmMs = 0, PrewarmInstrs = 0, PlanMs = 0, PlanOps = 0;
  double TranslateEst = 0, PlanEst = 0;
  for (const CellRun &R : Own) {
    CreateMs += R.CreateMs;
    RunMs += R.RunMs;
    Instrs += static_cast<double>(R.GuestInstrs);
    Cycles += static_cast<double>(R.M.SdtCycles);
    PrewarmMs += R.PrewarmMs;
    PrewarmInstrs += static_cast<double>(R.PrewarmInstrs);
    PlanMs += R.PlanReplayMs;
    PlanOps += static_cast<double>(R.PlanReplayOps);
    // Scale each cell's replay rate by the work its run did: translation
    // cost follows guest instructions translated, plan cost ops planned.
    TranslateEst += ratio(R.PrewarmMs, double(R.PrewarmInstrs)) *
                    double(R.M.Stats.GuestInstrsTranslated);
    PlanEst += ratio(R.PlanReplayMs, double(R.PlanReplayOps)) *
               double(R.Plan.FusedOps + R.Plan.StepOps);
  }
  Rep.num(K::PerLayer, "core.create_ms", CreateMs, "ms");
  Rep.num(K::PerLayer, "core.run_ms", RunMs, "ms");
  Rep.num(K::PerLayer, "core.guest_minstr", Instrs / 1e6, "Minstr");
  Rep.num(K::PerLayer, "core.host_ns_per_guest_instr", ratio(RunMs * 1e6, Instrs),
          "ns");
  Rep.num(K::PerLayer, "core.host_ns_per_sim_cycle", ratio(RunMs * 1e6, Cycles),
          "ns");
  Rep.num(K::PerLayer, "core.translate_ns_per_instr",
          ratio(PrewarmMs * 1e6, PrewarmInstrs), "ns");
  addCount(Rep, "core.translate_replay_instrs", PrewarmInstrs);
  Rep.num(K::PerLayer, "core.translate_est_ms", TranslateEst, "ms");
  Rep.num(K::PerLayer, "exec.plan_build_ns_per_op",
          ratio(PlanMs * 1e6, PlanOps), "ns");
  addCount(Rep, "exec.plan_replay_ops", PlanOps);
  // Zero wherever no plan was built (observed, today): printed, but not a
  // BENCHMARK.json metric, whose times must be measured, never constant.
  Rep.num(K::Info, "exec.plan_build_est_ms", PlanEst, "ms");

  // Only the observed workload attaches a sink and plugins; elsewhere these
  // are 0. Its bare reruns give the observed / bare run() time ratio.
  double Events = 0, Dropped = 0, ExportMs = 0, ExportBytes = 0, ReportMs = 0;
  std::vector<double> Overheads;
  for (size_t I = 0; I != Own.size(); ++I) {
    Events += static_cast<double>(Own[I].TraceEvents);
    Dropped += static_cast<double>(Own[I].TraceDropped);
    ExportMs += Own[I].ExportMs;
    ExportBytes += static_cast<double>(Own[I].ExportBytes);
    ReportMs += Own[I].ReportMs;
    if (Observed && Own[I].RunMs > 0 && TP.Bare[I].RunMs > 0)
      Overheads.push_back(Own[I].RunMs / TP.Bare[I].RunMs);
  }
  addCount(Rep, "trace.events", Events);
  addCount(Rep, "trace.dropped_events", Dropped);
  // Export and report times are 0 off the observed workload, and a listed
  // time must be measured on every workload: printed, not in BENCHMARK.json.
  Rep.num(K::Info, "trace.export_ms", ExportMs, "ms");
  Rep.num(K::Info, "trace.export_mib", ExportBytes / (1 << 20), "MiB");
  Rep.num(K::Info, "plugin.report_ms", ReportMs, "ms");
  Rep.num(K::PerLayer, "plugin.observe_overhead",
          Overheads.empty() ? 0.0 : geometricMean(Overheads), "x");
  Rep.num(K::PerLayer, "bench.trace_overhead_pct",
          100.0 * (TP.ComparableWallS - UntracedSweepS) / UntracedSweepS, "%");
  for (const auto &[Layer, Ms] : Log.selfMsByLayer())
    Rep.num(K::Info, "bench.self_ms." + Layer, Ms, "ms");
}

std::string chromeTraceJson(const SpanLog &Log, const Sweep &S,
                            const Report &Rep, const WorkloadDef &W,
                            uint64_t Seed) {
  std::string Out = "{\"traceEvents\": [\n";
  char Buf[256];
  const std::vector<SpanLog::Span> &Spans = Log.spans();
  for (size_t I = 0; I != Spans.size(); ++I) {
    const SpanLog::Span &Sp = Spans[I];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                  "\"args\": {\"id\": %zu, \"parent\": %d, \"cell\": %d}}",
                  Sp.Name, SpanLog::layerOf(Sp.Name).c_str(), Sp.StartUs,
                  Sp.EndUs - Sp.StartUs, I, Sp.Parent, Sp.Cell);
    Out += Buf;
    Out += I + 1 == Spans.size() ? "\n" : ",\n";
  }
  Out += "], \"displayTimeUnit\": \"ms\", \"otherData\": {\"workload\": \"";
  Out += W.Name;
  Out += "\", \"seed\": " + std::to_string(Seed) + ", \"cells\": [";
  for (size_t I = 0; I != S.size(); ++I)
    Out += (I ? ", \"" : "\"") + S.cellName(I) + "\"";
  Out += "], \"layer_self_ms\": {";
  bool First = true;
  for (const auto &[Layer, Ms] : Log.selfMsByLayer()) {
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": %.6f", First ? "" : ", ",
                  Layer.c_str(), Ms);
    Out += Buf;
    First = false;
  }
  Out += "}, \"metrics\": " + Rep.metricsJson(nullptr) + "}}\n";
  return Out;
}

std::string jsonList(const std::vector<double> &V) {
  std::string Out = "[";
  char Buf[32];
  for (size_t I = 0; I != V.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%s%.9g", I ? ", " : "", V[I]);
    Out += Buf;
  }
  return Out + "]";
}

bool writeFile(const std::string &Path, const std::string &Doc) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  bool Ok = std::fwrite(Doc.data(), 1, Doc.size(), F) == Doc.size();
  return std::fclose(F) == 0 && Ok;
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  /// Timed-pass budget; required unless Smoke. run.sh passes BENCHMARK.json's
  /// run_seconds.
  double Seconds = 0.0;
  bool Smoke = false; ///< Scale 2 and a single timed pass.
  std::string TracedPath;
  std::string ReportPath;
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "stratabench: %s\n"
               "usage: stratabench --workload <ib_dense|low_ib|churn|"
               "observed> [--seed N]\n"
               "                   (--seconds S | --smoke)\n"
               "                   [--traced <chrome.json>] "
               "[--report <report.json>]\n",
               Why);
  std::exit(2);
}

uint64_t parseSeed(const char *V) {
  errno = 0;
  char *End = nullptr;
  unsigned long long N = std::strtoull(V, &End, 10);
  if (errno || End == V || *End || V[0] == '-')
    usage(("bad value for --seed: '" + std::string(V) + "'").c_str());
  return N;
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--smoke") {
      A.Smoke = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    const char *V = Argv[++I];
    if (Flag == "--workload")
      A.Workload = V;
    else if (Flag == "--seed")
      A.Seed = parseSeed(V);
    else if (Flag == "--seconds") {
      char *End = nullptr;
      A.Seconds = std::strtod(V, &End);
      if (End == V || *End || !(A.Seconds > 0.0) || A.Seconds > 3600.0)
        usage(("bad value for --seconds: '" + std::string(V) + "'").c_str());
    } else if (Flag == "--traced")
      A.TracedPath = V;
    else if (Flag == "--report")
      A.ReportPath = V;
    else
      usage(("unknown argument '" + Flag + "'").c_str());
  }
  if (A.Workload.empty())
    usage("--workload is required");
  if (!A.Smoke && A.Seconds == 0.0)
    usage("--seconds is required without --smoke");
  return A;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  const WorkloadDef *W = nullptr;
  for (const WorkloadDef &D : workloadDefs())
    if (A.Workload == D.Name)
      W = &D;
  if (!W)
    usage(("unknown workload '" + A.Workload + "'").c_str());
  const bool Traced = !A.TracedPath.empty();
  const uint32_t BaseScale = A.Smoke ? SmokeScale : W->BaseScale;
  const arch::MachineModel Model = arch::x86Model();
  SpanLog Log;
  SpanLog *SetupLog = Traced ? &Log : nullptr;

  // 1. Set-up, repeated; the first repetition's programs are swept, and
  // every later one must rebuild them bit for bit.
  std::vector<SetupRep> Setups;
  const auto SetupStart = Clock::now();
  for (unsigned R = 0; R < SetupReps || (!A.Smoke && secondsSince(SetupStart) <
                                                         SetupMinSeconds);
       ++R) {
    std::optional<SetupRep> Rep = setUp(*W, BaseScale, A.Seed, Model, SetupLog);
    if (!Rep)
      return 1;
    Setups.push_back(std::move(*Rep));
    if (R == 0)
      continue;
    for (size_t G = 0; G != Setups[0].Guests.size(); ++G) {
      const Guest &X = Setups[0].Guests[G], &Y = Setups.back().Guests[G];
      if (X.Program.image() != Y.Program.image() ||
          X.NativeCycles != Y.NativeCycles ||
          X.Native.Checksum != Y.Native.Checksum) {
        std::fprintf(stderr, "stratabench: set-up of %s is not deterministic\n",
                     X.Name.c_str());
        return 1;
      }
    }
    Setups.back().Guests.clear();
  }
  Sweep S(*W, std::move(Setups.front().Guests), A.Seed, Model);

  // 2. Warm-up, 3. timed passes. Pass indices drive the cell order.
  uint64_t Index = 0;
  S.run(Index++);
  std::vector<Pass> Passes;
  const auto Start = Clock::now();
  while (Passes.empty() ||
         (!A.Smoke &&
          (Passes.size() < MinPasses || secondsSince(Start) < A.Seconds)))
    Passes.push_back(S.run(Index++));

  std::vector<double> SweepS, Mips, SetupS;
  for (const Pass &P : Passes) {
    double Instrs = 0, RunMs = 0;
    for (const CellRun &R : P.Runs) {
      Instrs += static_cast<double>(R.GuestInstrs);
      RunMs += R.RunMs;
    }
    SweepS.push_back(P.WallS);
    Mips.push_back(ratio(Instrs / 1e6, RunMs / 1000.0));
  }
  for (const SetupRep &R : Setups)
    SetupS.push_back(R.WallS);

  // 4. The traced pass.
  std::optional<TracedPass> TP;
  if (Traced)
    TP = S.runTraced(Index++, Log);

  // The random guest's slowdown swings ~1.5x from seed to seed (its code
  // shape changes, not just its length), which would dominate churn's
  // geo-mean; it is reported on its own line instead.
  std::vector<double> Slowdowns, RandomSlowdowns;
  for (size_t I = 0; I != S.size(); ++I) {
    const CellRun &R = Passes.back().Runs[I];
    (S.guest(I).Name == RandomGuest ? RandomSlowdowns : Slowdowns)
        .push_back(ratio(double(R.M.SdtCycles), double(R.M.NativeCycles)));
  }

  Report Rep;
  std::array<double, 3> Q = quartiles(SweepS);
  Rep.num(Kind::EndToEnd, "sweep_s", median(SweepS), "s");
  Rep.num(Kind::Info, "sweep_s.q1", Q[0], "s");
  Rep.num(Kind::Info, "sweep_s.q3", Q[2], "s");
  Rep.num(Kind::Info, "bench.passes", static_cast<double>(Passes.size()),
          "count");
  Rep.num(Kind::EndToEnd, "guest_mips", median(Mips), "Minstr/s");
  Rep.num(Kind::EndToEnd, "setup_s", median(SetupS), "s");
  Rep.num(Kind::EndToEnd, "modeled_slowdown", geometricMean(Slowdowns), "x");
  if (!RandomSlowdowns.empty())
    Rep.num(Kind::Info, "modeled_slowdown.random_guest",
            geometricMean(RandomSlowdowns), "x");
  Rep.num(Kind::Info, "bench.cells", static_cast<double>(S.size()), "count");
  addCounts(Rep, Traced ? TP->Own.Runs : Passes.back().Runs);
  if (Traced)
    addTracedTimes(Rep, *TP, W->Observed, Setups, median(SweepS), Log);
  Rep.text("modeled_digest", hex64(S.digest()));
  Rep.text("bench.input_digest", hex64(S.inputDigest()));
  {
    uint64_t H = FnvBasis;
    for (size_t I : cellOrder(S.size(), A.Seed, 1))
      H = hashWord(H, I);
    Rep.text("bench.order_digest", hex64(H));
  }
  Rep.num(Kind::EndToEnd, "peak_heap_mb", double(PeakHeapBytes) / (1 << 20),
          "MiB");
  Rep.num(Kind::Info, "cells_attempted", static_cast<double>(S.attempted()),
          "count");
  Rep.num(Kind::Info, "cells_failed", static_cast<double>(S.failed()),
          "count");

  if (Traced &&
      !writeFile(A.TracedPath, chromeTraceJson(Log, S, Rep, *W, A.Seed))) {
    std::fprintf(stderr, "stratabench: cannot write %s\n",
                 A.TracedPath.c_str());
    return 1;
  }

  const bool Correct = S.failed() == 0;
  char Head[160];
  std::snprintf(Head, sizeof(Head),
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                Correct ? "true" : "false",
                static_cast<unsigned long long>(S.attempted()),
                static_cast<unsigned long long>(S.failed()));
  if (!A.ReportPath.empty()) {
    std::string Doc = Head;
    Doc += "\"workload\": \"" + std::string(W->Name) +
           "\", \"seed\": " + std::to_string(A.Seed) +
           ", \"traced\": " + (Traced ? "true" : "false") +
           ", \"metrics\": " + Rep.metricsJson(nullptr) +
           ", \"text\": " + Rep.textJson() +
           ", \"samples\": {\"sweep_s\": " + jsonList(SweepS) +
           ", \"guest_mips\": " + jsonList(Mips) +
           ", \"setup_s\": " + jsonList(SetupS) + "}}\n";
    if (!writeFile(A.ReportPath, Doc)) {
      std::fprintf(stderr, "stratabench: cannot write %s\n",
                   A.ReportPath.c_str());
      return 1;
    }
  }

  Rep.print();
  const Kind Contract = Traced ? Kind::PerLayer : Kind::EndToEnd;
  std::printf("%s\"metrics\": %s}\n", Head, Rep.metricsJson(&Contract).c_str());
  return Correct ? 0 : 1;
}

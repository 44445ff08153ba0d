//===- bench_e2e.cpp - End-to-end + per-layer SymMerge benchmark ----------===//
//
// Part of SymMerge. MIT license.
//
//===----------------------------------------------------------------------===//
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//
// One invocation measures one workload, closed loop: a single process
// compiles the workload, builds a runner, and explores it exhaustively,
// one run at a time, until --seconds have passed. Engine seeds are
// Config::Seed = N * 1000 + i, so a run's inputs follow from --seed.
//
//  --trace 0  end-to-end metrics through the public SymbolicRunner API,
//             tracing off. Run k uses seed i = k mod the workload's seed
//             count. At one worker a seed's time is its fastest
//             repetition, wall_s and cpu_s are medians of these, and a
//             repeated seed must reproduce its counts exactly (determinism
//             self-check); parallel timings are medians over all runs.
//  --trace 1  per-layer metrics: each untraced SymbolicRunner run (run k
//             uses seed i = k) is paired with a traced run of the same
//             engine seed on the decorated mirror stack (TracedStack.h).
//             At one worker the pair must agree on every count (fidelity
//             check). The last traced run's spans are written to
//             spans-NAME.txt next to the binary when the measuring ends.
//
// Every run's outcome is checked against an oracle that does not trust
// the engine: each test replays on the concrete interpreter
// (core/Replay.h) to its recorded kind and site, and coverage, the
// bug-site set and the explored path count must equal values pinned from
// a reference commit. Prints one JSON object on its last line.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "TracedStack.h"

#include "core/Driver.h"
#include "core/Replay.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <sched.h>
#include <set>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <vector>

using namespace e2e;
using namespace symmerge;

namespace {

//===----------------------------------------------------------------------===
// Workloads
//===----------------------------------------------------------------------===

enum class Mode { Plain, SSMAll, DSMQce };

/// One benchmark workload: a built-in program at a fixed size under one
/// of the paper's configurations, plus the oracle's pinned outcome.
struct WorkloadSpec {
  const char *Name;
  const char *Program;
  unsigned N, L;
  Mode M;
  unsigned Workers;
  unsigned TestGenThreads;
  /// Engine seeds one --trace 0 invocation cycles through; more where the
  /// explored work depends on the seed, so the set's median steadies.
  unsigned EngineSeeds;
  // Outcome pinned from the reference commit. Exhaustive exploration
  // reaches the same blocks, bug sites and path count under any seed.
  size_t CoveredBlocks;
  double StmtCoverage;
  double Paths; ///< Completed-state multiplicity: feasible paths explored.
  /// Pinned test count; 0 where it depends on the seed (merging changes
  /// how many states complete), which then must equal the engine's own
  /// completed-state and bug-report counts instead.
  uint64_t Tests;
  /// Pinned hash of the sorted multiset of concrete replay step counts
  /// over all tests; 0 where it depends on the seed. A path fixes its
  /// step count, so a model that lands on a wrong path changes the hash.
  uint64_t ReplayStepsHash;
  std::vector<std::string> BugSites;
};

const std::vector<WorkloadSpec> &workloads() {
  static const std::vector<WorkloadSpec> W = {
      {"dsm-merge", "wc", 3, 4, Mode::DSMQce, 1, 1, 32, 16, 0.9811320754716981,
       3616, 0, 0, {}},
      {"plain-fork", "expand", 2, 4, Mode::Plain, 1, 1, 4, 19,
       0.9827586206896551, 1641, 1641, 6536405718246904520ull, {}},
      {"ssm-sat", "tsort", 4, 4, Mode::SSMAll, 1, 1, 4, 50, 0.961038961038961,
       7784628229, 11, 1771174203050390583ull, {}},
      {"par-merge", "wc", 3, 4, Mode::DSMQce, 3, 1, 32, 16, 0.9811320754716981,
       3616, 0, 0, {}},
  };
  return W;
}

/// Per-run wall-clock budget; a run that stops on it has not exhausted
/// the workload and fails the oracle.
constexpr double RunBudgetSeconds = 60.0;

SymbolicRunner::Config makeConfig(const WorkloadSpec &W, uint64_t Seed) {
  SymbolicRunner::Config C;
  switch (W.M) {
  case Mode::Plain: // symmerge-run --mode=plain
    C.Merge = SymbolicRunner::MergeMode::None;
    C.Driving = SymbolicRunner::Strategy::Random;
    break;
  case Mode::SSMAll: // --mode=ssm-all
    C.Merge = SymbolicRunner::MergeMode::All;
    C.Driving = SymbolicRunner::Strategy::Topological;
    break;
  case Mode::DSMQce: // --mode=dsm-qce
    C.Merge = SymbolicRunner::MergeMode::QCE;
    C.UseDSM = true;
    C.Driving = SymbolicRunner::Strategy::Coverage;
    break;
  }
  C.Seed = Seed;
  C.Engine.Workers = W.Workers;
  C.TestGenThreads = W.TestGenThreads;
  C.Engine.CollectTests = true;
  C.Engine.MaxSeconds = RunBudgetSeconds;
  return C;
}

const char *modeName(Mode M) {
  switch (M) {
  case Mode::Plain:
    return "plain";
  case Mode::SSMAll:
    return "ssm-all";
  case Mode::DSMQce:
    return "dsm-qce";
  }
  return "?";
}

//===----------------------------------------------------------------------===
// Measurement helpers
//===----------------------------------------------------------------------===

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

/// The CPUs this process may run on.
std::vector<int> allowedCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  std::vector<int> Out;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Out.push_back(C);
  return Out;
}

/// Pins the calling thread to \p Cpu; a failure leaves it unpinned.
void pinTo(int Cpu) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  (void)sched_setaffinity(0, sizeof(Set), &Set);
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

std::string siteName(const Location &L) {
  if (!L.Block)
    return "?";
  return L.Block->parent()->name() + ":" + L.Block->name() + ":" +
         std::to_string(L.Index);
}

constexpr uint64_t FnvBasis = 1469598103934665603ull;

uint64_t fnv1a(uint64_t H, const std::string &S) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

uint64_t fnv1a(uint64_t H, uint64_t V) {
  for (int I = 0; I < 8; ++I, V >>= 8) {
    H ^= V & 0xff;
    H *= 1099511628211ull;
  }
  return H;
}

//===----------------------------------------------------------------------===
// Outcome oracle
//===----------------------------------------------------------------------===

/// What one run produced, reduced to the values the oracle, the
/// determinism self-check and the fidelity check compare.
struct Outcome {
  uint64_t Steps = 0, Forks = 0, Merges = 0, Ites = 0, Completed = 0;
  uint64_t Errors = 0, Queries = 0, Sessions = 0, Tests = 0;
  uint64_t FastForwards = 0;
  size_t CoveredBlocks = 0;
  double StmtCoverage = 0;
  double Paths = 0;
  uint64_t TestKeysHash = 0; ///< Canonical keys, in emission order.
  uint64_t ReplayStepsHash = 0; ///< Sorted replay step counts.
  std::string ReplayFailure;    ///< First test that failed replay, if any.
  std::set<std::string> BugSites;
  bool Exhausted = false;

  /// The counts that must repeat exactly across same-seed runs.
  bool sameCounts(const Outcome &O) const {
    return Steps == O.Steps && Forks == O.Forks && Merges == O.Merges &&
           Ites == O.Ites && Completed == O.Completed && Errors == O.Errors &&
           Queries == O.Queries && Sessions == O.Sessions &&
           Tests == O.Tests && FastForwards == O.FastForwards &&
           CoveredBlocks == O.CoveredBlocks &&
           StmtCoverage == O.StmtCoverage && Paths == O.Paths &&
           TestKeysHash == O.TestKeysHash &&
           ReplayStepsHash == O.ReplayStepsHash && BugSites == O.BugSites;
  }
};

std::string replayMismatch(const TestCase &T, const ReplayResult &RR);

/// Reduces a run to its Outcome, replaying every test concretely.
Outcome summarizeRun(const Module &M, ExprContext &Ctx, const RunResult &R,
                     const CoverageTracker &Cov) {
  Outcome O;
  const EngineStats &S = R.Stats;
  O.Steps = S.Steps;
  O.Forks = S.Forks;
  O.Merges = S.Merges;
  O.Ites = S.MergedItes;
  O.Completed = S.CompletedStates;
  O.Errors = S.Errors;
  O.Queries = S.SolverQueries;
  O.Sessions = S.SolverSessions;
  O.Tests = R.Tests.size();
  O.FastForwards = S.FastForwardSelections;
  O.CoveredBlocks = Cov.coveredBlocks();
  O.StmtCoverage = Cov.statementCoverage();
  O.Paths = S.CompletedMultiplicity;
  O.Exhausted = S.Exhausted;
  uint64_t H = FnvBasis;
  std::vector<uint64_t> ReplaySteps;
  for (const TestCase &T : R.Tests) {
    H = fnv1a(H, canonicalTestKey(T));
    if (T.isBug())
      O.BugSites.insert(siteName(T.Where));
    const ReplayResult RR = replayTest(M, Ctx, T);
    ReplaySteps.push_back(RR.Steps);
    if (std::string Why = replayMismatch(T, RR);
        !Why.empty() && O.ReplayFailure.empty())
      O.ReplayFailure = Why;
  }
  O.TestKeysHash = H;
  std::sort(ReplaySteps.begin(), ReplaySteps.end());
  O.ReplayStepsHash = FnvBasis;
  for (uint64_t Steps : ReplaySteps)
    O.ReplayStepsHash = fnv1a(O.ReplayStepsHash, Steps);
  return O;
}

/// Checks one test against its concrete replay: the interpreter must end
/// the same way the engine said the path ends, at an instruction of the
/// recorded kind (the replay API reports kind and message, not the
/// location, so the site is checked through the instruction the test
/// points at).
std::string replayMismatch(const TestCase &T, const ReplayResult &RR) {
  const Instr *At = nullptr;
  if (T.Where.Block && T.Where.Index < T.Where.Block->instructions().size())
    At = &T.Where.Block->instructions()[T.Where.Index];
  switch (T.Kind) {
  case TestKind::Halt:
    if (RR.K != ReplayResult::Kind::Halt)
      return "halt test did not replay to a halt";
    if (!At || (At->Op != Opcode::Halt && At->Op != Opcode::Ret))
      return "halt test does not point at a program exit";
    return "";
  case TestKind::AssertFailure:
    if (RR.K != ReplayResult::Kind::AssertFailure || RR.Message != T.Message)
      return "assert test did not replay to its assertion";
    if (!At || At->Op != Opcode::Assert || At->Message != T.Message)
      return "assert test does not point at its assertion";
    return "";
  case TestKind::OutOfBounds: {
    if (RR.K != ReplayResult::Kind::OutOfBounds)
      return "bounds test did not replay to an out-of-bounds access";
    const bool IsLoad = T.Message.find("load") != std::string::npos;
    const Opcode Want = IsLoad ? Opcode::Load : Opcode::Store;
    if (RR.Message.find(IsLoad ? "load" : "store") == std::string::npos)
      return "bounds test replayed to the other access kind";
    if (!At || At->Op != Want)
      return "bounds test does not point at its access";
    return "";
  }
  }
  return "unknown test kind";
}

/// Returns "" when the run passes the oracle, else the first failure.
std::string checkOutcome(const WorkloadSpec &W, const RunResult &R,
                         const Outcome &O) {
  if (!O.Exhausted)
    return "budget hit before exhaustion";
  if (R.Stats.SolverUnknownsObserved != 0 || R.Stats.TestGenSkipped != 0)
    return "solver returned unknown";
  if (O.CoveredBlocks != W.CoveredBlocks || O.StmtCoverage != W.StmtCoverage)
    return "coverage differs from the pinned value";
  if (O.Paths != W.Paths)
    return "explored path count differs from the pinned value";
  const std::set<std::string> Pinned(W.BugSites.begin(), W.BugSites.end());
  if (O.BugSites != Pinned)
    return "bug-site set differs from the pinned set";
  uint64_t HaltTests = 0;
  for (const TestCase &T : R.Tests)
    HaltTests += !T.isBug();
  if (HaltTests != O.Completed || O.Tests - HaltTests != O.Errors)
    return "test count differs from completed states + bug reports";
  if (W.Tests != 0 && O.Tests != W.Tests)
    return "test count differs from the pinned value";
  if (!O.ReplayFailure.empty())
    return O.ReplayFailure;
  if (W.ReplayStepsHash != 0 && O.ReplayStepsHash != W.ReplayStepsHash)
    return "replay step counts differ from the pinned multiset";
  return "";
}

//===----------------------------------------------------------------------===
// JSON output
//===----------------------------------------------------------------------===

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// A metric: its value (a median for timings), unit and samples.
struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
  std::vector<double> Samples;
};

void addSampled(std::vector<Metric> &Out, const std::string &Name,
                const char *Unit, const std::vector<double> &Samples) {
  Out.push_back({Name, median(Samples), Unit, Samples});
}

void addValue(std::vector<Metric> &Out, const std::string &Name,
              const char *Unit, double Value) {
  Out.push_back({Name, Value, Unit, {}});
}

//===----------------------------------------------------------------------===
// Runs
//===----------------------------------------------------------------------===

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string OutDir; ///< The binary's directory, with a trailing '/'.
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  const std::string Self = Argv[0];
  A.OutDir = Self.substr(0, Self.rfind('/') + 1);
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return false;
    const char *V = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = V;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(V, &End, 10);
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(V, &End);
    } else if (Flag == "--trace") {
      A.Trace = std::strcmp(V, "1") == 0;
      if (!A.Trace && std::strcmp(V, "0") != 0)
        return false;
    } else {
      return false;
    }
    if (End && *End)
      return false;
  }
  return !A.Workload.empty() && A.Seconds > 0;
}

std::unique_ptr<Module> compileOrNull(const WorkloadSpec &W) {
  const Workload *Prog = findWorkload(W.Program);
  if (!Prog)
    return nullptr;
  CompileResult CR = compileWorkload(*Prog, W.N, W.L);
  return std::move(CR.M);
}

/// Set-up samples: compile the workload, then construct the runner.
struct SetupSample {
  double CompileS = 0, InitS = 0;
  double total() const { return CompileS + InitS; }
};

/// Set-up-only samples (compile + construct, then discard), taken in
/// batches before the first run and after every run so that set-up time
/// is a median over the whole measuring window, steady even when few runs
/// fit. The first count is a multiple of the batch size.
constexpr int SetupSamplesFirst = 100;
constexpr int SetupSamplesPerRun = 20;

struct Prepared {
  std::unique_ptr<Module> M;
  std::unique_ptr<SymbolicRunner> Runner;
  SetupSample Setup;
};

Prepared prepare(const WorkloadSpec &W, uint64_t EngineSeed) {
  Prepared P;
  const double T0 = now();
  P.M = compileOrNull(W);
  const double T1 = now();
  if (!P.M)
    return P;
  P.Runner = std::make_unique<SymbolicRunner>(*P.M, makeConfig(W, EngineSeed));
  P.Setup = {T1 - T0, now() - T1};
  return P;
}

/// Appends \p Count set-up-only samples; false if the workload does not
/// compile.
bool sampleSetups(const WorkloadSpec &W, int Count,
                  std::vector<SetupSample> &Out) {
  for (int I = 0; I < Count; ++I) {
    Prepared P = prepare(W, 0);
    if (!P.M)
      return false;
    Out.push_back(P.Setup);
  }
  return true;
}

/// One untraced run through the public API.
struct UntracedRun {
  double WallS = 0, CpuS = 0;
  Outcome O;
  std::string Failure; ///< Empty when the oracle passed.
};

UntracedRun runUntraced(const WorkloadSpec &W, uint64_t EngineSeed) {
  UntracedRun U;
  Prepared P = prepare(W, EngineSeed);
  if (!P.M) {
    U.Failure = "workload failed to compile";
    return U;
  }
  const double C0 = cpuSeconds();
  const double T0 = now();
  RunResult R = P.Runner->run();
  U.WallS = now() - T0;
  U.CpuS = cpuSeconds() - C0;
  U.O = summarizeRun(*P.M, P.Runner->context(), R, P.Runner->coverage());
  U.Failure = checkOutcome(W, R, U.O);
  return U;
}

uint64_t engineSeed(uint64_t Seed, unsigned K) { return Seed * 1000 + K; }

/// Runs the closed loop: at least \p MinRuns runs, then more until the
/// next run would likely overrun \p Seconds.
template <typename RunOnce>
void closedLoop(double Seconds, unsigned MinRuns, double Start,
                RunOnce Once) {
  double Busy = 0;
  for (unsigned K = 0;; ++K) {
    if (K >= MinRuns && now() - Start + (K ? Busy / K : 0) > Seconds)
      break;
    const double T0 = now();
    Once(K);
    Busy += now() - T0;
  }
}

void printResult(const Args &A, const WorkloadSpec &W, bool Correct,
                 uint64_t Attempted, uint64_t Failed,
                 const std::vector<std::string> &Failures,
                 const std::vector<Metric> &Metrics,
                 const std::vector<uint64_t> &EngineSeeds, uint64_t Runs,
                 const std::string &Checks, const Outcome &First) {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    Out += (I ? ", " : "") + jsonString(M.Name) +
           ": {\"value\": " + jsonNumber(M.Value) +
           ", \"unit\": " + jsonString(M.Unit);
    if (!M.Samples.empty()) {
      Out += ", \"n\": " + std::to_string(M.Samples.size()) + ", \"samples\": [";
      for (size_t J = 0; J < M.Samples.size(); ++J)
        Out += (J ? ", " : "") + jsonNumber(M.Samples[J]);
      Out += "]";
    }
    Out += "}";
  }
  Out += "}, \"failures\": [";
  for (size_t I = 0; I < Failures.size(); ++I)
    Out += (I ? ", " : "") + jsonString(Failures[I]);
  Out += "], \"checks\": " + jsonString(Checks);
  // The first run's outcome, in the form the oracle pins it.
  Out += ", \"outcome\": {\"covered_blocks\": " +
         std::to_string(First.CoveredBlocks) +
         ", \"stmt_coverage\": " + jsonNumber(First.StmtCoverage) +
         ", \"paths\": " + jsonNumber(First.Paths) +
         ", \"tests\": " + std::to_string(First.Tests) +
         ", \"completed_states\": " + std::to_string(First.Completed) +
         ", \"replay_steps_hash\": " + std::to_string(First.ReplayStepsHash) +
         ", \"bug_sites\": [";
  size_t Site = 0;
  for (const std::string &B : First.BugSites)
    Out += (Site++ ? ", " : "") + jsonString(B);
  Out += "]}";
  Out += ", \"context\": {\"workload\": " + jsonString(W.Name);
  Out += ", \"program\": " + jsonString(std::string(W.Program) + " N=" +
                                        std::to_string(W.N) + " L=" +
                                        std::to_string(W.L));
  Out += ", \"mode\": " + jsonString(modeName(W.M));
  Out += ", \"workers\": " + std::to_string(W.Workers);
  Out += ", \"testgen_threads\": " +
         std::to_string(W.Workers > 1 ? W.TestGenThreads : 0);
  Out += ", \"seed\": " + std::to_string(A.Seed);
  Out += ", \"engine_seeds\": [";
  for (size_t I = 0; I < EngineSeeds.size(); ++I)
    Out += (I ? ", " : "") + std::to_string(EngineSeeds[I]);
  Out += "], \"runs\": " + std::to_string(Runs);
  Out += ", \"trace\": " + std::to_string(A.Trace ? 1 : 0);
  Out += ", \"seconds\": " + jsonNumber(A.Seconds);
  Out += ", \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency());
  Out += ", \"build_type\": " + jsonString(E2E_BUILD_TYPE);
  Out += ", \"cxx_flags\": " + jsonString(E2E_CXX_FLAGS);
  Out += ", \"compiler\": " + jsonString(E2E_COMPILER);
#ifdef __OPTIMIZE__
  Out += ", \"optimized\": true";
#else
  Out += ", \"optimized\": false";
#endif
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

/// --trace 0: end-to-end metrics, tracing off.
int runEndToEnd(const Args &A, const WorkloadSpec &W) {
  const double Start = now();
  std::vector<SetupSample> Setups;
  if (!sampleSetups(W, SetupSamplesFirst, Setups)) {
    std::fprintf(stderr, "workload %s failed to compile\n", W.Name);
    return 1;
  }

  // Run k uses engine seed k mod EngineSeeds, so every seed is repeated
  // across the window. At one worker a seed's time is its fastest
  // repetition: the host only ever adds time to a run, so the fastest one
  // carries the least of it. wall_s and cpu_s are medians of these over
  // the seeds. A parallel run's time also depends on how its threads
  // interleave, so its fastest repetition is a lucky schedule rather than
  // its cost; parallel workloads report the median over all runs.
  //
  // On a shared host that interference is mostly per CPU (a busy sibling
  // thread on the same core) and lasts seconds, so a single-worker run is
  // pinned, round r of the seeds to CPU r mod n: each seed's repetitions
  // visit every allowed CPU. Parallel runs keep the default affinity.
  const unsigned NumSeeds = W.EngineSeeds;
  const bool Parallel = W.Workers > 1;
  const std::vector<int> Cpus = allowedCpus();
  const bool Rotate = !Parallel && Cpus.size() > 1;
  std::vector<uint64_t> Seeds;
  for (unsigned I = 0; I < NumSeeds; ++I)
    Seeds.push_back(engineSeed(A.Seed, I));
  std::vector<double> BestWall(NumSeeds, HUGE_VAL), BestCpu(NumSeeds, HUGE_VAL);
  std::vector<double> WallS, CpuS;
  std::vector<Outcome> FirstOutcome(NumSeeds);
  std::vector<double> Queries;
  std::vector<std::string> Failures;
  uint64_t Failed = 0, Runs = 0, Repeats = 0;
  bool Deterministic = true;
  auto Fail = [&](uint64_t Seed, const std::string &Why) {
    ++Failed;
    Failures.push_back("engine seed " + std::to_string(Seed) + ": " + Why);
  };
  // An untimed warm-up run with run 0's engine seed: the first run of a
  // process pays for faulting in its heap, which no later run repeats.
  const UntracedRun WarmUp = runUntraced(W, Seeds[0]);
  if (!WarmUp.Failure.empty())
    Fail(Seeds[0], "warm-up: " + WarmUp.Failure);
  closedLoop(A.Seconds, NumSeeds, Start, [&](unsigned K) {
    const unsigned I = K % NumSeeds;
    if (Rotate)
      pinTo(Cpus[(K / NumSeeds) % Cpus.size()]);
    UntracedRun U = runUntraced(W, Seeds[I]);
    sampleSetups(W, SetupSamplesPerRun, Setups);
    ++Runs;
    BestWall[I] = std::min(BestWall[I], U.WallS);
    BestCpu[I] = std::min(BestCpu[I], U.CpuS);
    WallS.push_back(U.WallS);
    CpuS.push_back(U.CpuS);
    Queries.push_back(static_cast<double>(U.O.Queries));
    if (!U.Failure.empty())
      Fail(Seeds[I], U.Failure);
    // Determinism self-check: at one worker a repeated engine seed (the
    // warm-up's included) must reproduce every count exactly; parallel
    // runs are reported as medians and are not required to.
    const Outcome &Ref = K == 0 ? WarmUp.O : FirstOutcome[I];
    if (K < NumSeeds)
      FirstOutcome[I] = U.O;
    if (!Parallel && (K == 0 || K >= NumSeeds)) {
      ++Repeats;
      if (!Ref.sameCounts(U.O)) {
        Deterministic = false;
        Fail(Seeds[I], "counts differ between two runs");
      }
    }
  });
  std::string Checks = "determinism: ";
  if (!Parallel)
    Checks += (Deterministic ? "ok over " : "FAILED over ") +
              std::to_string(Repeats) + " repeated seeds";
  else
    Checks += "not required (parallel)";

  // setup_s: the fastest set-up of each batch, as for a seed's runs.
  std::vector<double> SetupS;
  for (size_t I = 0; I < Setups.size(); I += SetupSamplesPerRun) {
    const size_t End = std::min(Setups.size(), I + SetupSamplesPerRun);
    double Best = HUGE_VAL;
    for (size_t J = I; J < End; ++J)
      Best = std::min(Best, Setups[J].total());
    SetupS.push_back(Best);
  }
  std::vector<Metric> Metrics;
  addSampled(Metrics, "setup_s", "s", SetupS);
  addSampled(Metrics, "wall_s", "s", Parallel ? WallS : BestWall);
  addSampled(Metrics, "cpu_s", "s", Parallel ? CpuS : BestCpu);
  addValue(Metrics, "peak_rss_mb", "MB", peakRssMb());
  addSampled(Metrics, "solver_queries", "count", Queries);
  const uint64_t Attempted = Runs + 1;
  addValue(Metrics, "fail_frac", "ratio",
           static_cast<double>(std::min(Failed, Attempted)) /
               static_cast<double>(Attempted));
  printResult(A, W, Failed == 0, Attempted, std::min(Failed, Attempted),
              Failures, Metrics, Seeds, Runs, Checks, FirstOutcome.front());
  return 0;
}

/// --trace 1: per-layer metrics from traced runs paired with untraced
/// runs of the same engine seed.
int runTraced(const Args &A, const WorkloadSpec &W) {
  const double Start = now();
  std::vector<SetupSample> Setups;
  if (!sampleSetups(W, SetupSamplesFirst, Setups)) {
    std::fprintf(stderr, "workload %s failed to compile\n", W.Name);
    return 1;
  }

  std::map<std::string, std::vector<double>> Layer;
  std::vector<double> UntracedWall, TracedWall;
  std::vector<uint64_t> Seeds;
  std::vector<std::string> Failures;
  uint64_t Attempted = 0, Failed = 0;
  std::string Checks;
  Outcome First;
  std::unique_ptr<Tracer> LastTrace;
  const double Threads =
      W.Workers > 1 ? static_cast<double>(W.Workers + W.TestGenThreads) : 1.0;
  auto Fail = [&](uint64_t Seed, const std::string &Why) {
    ++Failed;
    Failures.push_back("engine seed " + std::to_string(Seed) + ": " + Why);
  };

  // Untimed warm-up, as in runEndToEnd.
  {
    UntracedRun U = runUntraced(W, engineSeed(A.Seed, 0));
    ++Attempted;
    if (!U.Failure.empty())
      Fail(engineSeed(A.Seed, 0), "warm-up: " + U.Failure);
  }
  closedLoop(A.Seconds, 1, Start, [&](unsigned K) {
    const uint64_t Seed = engineSeed(A.Seed, K);
    Seeds.push_back(Seed);
    UntracedRun U = runUntraced(W, Seed);
    sampleSetups(W, SetupSamplesPerRun, Setups);
    UntracedWall.push_back(U.WallS);
    if (K == 0)
      First = U.O;
    ++Attempted;
    if (!U.Failure.empty())
      Fail(Seed, U.Failure);

    std::unique_ptr<Module> M = compileOrNull(W);
    if (!M) {
      Fail(Seed, "workload failed to compile");
      return;
    }
    auto T = std::make_unique<Tracer>(Seed);
    TracedRunner TR(*M, makeConfig(W, Seed), *T);
    const double T0 = now();
    RunResult R = TR.run();
    TracedWall.push_back(now() - T0);
    const Outcome O = summarizeRun(*M, TR.context(), R, TR.coverage());
    const TraceSummary S = T->summarize();
    LastTrace = std::move(T);
    ++Attempted;
    if (std::string Why = checkOutcome(W, R, O); !Why.empty())
      Fail(Seed, "traced: " + Why);

    // Fidelity: at one worker the decorated mirror must reproduce the
    // public-API run exactly.
    if (W.Workers == 1 && !O.sameCounts(U.O))
      Fail(Seed, "traced run counts differ from the untraced run");
    using N = SpanName;
    auto Cnt = [&](N X) { return S.Names[static_cast<size_t>(X)].Count; };
    auto Self = [&](N X) { return S.Names[static_cast<size_t>(X)].SelfS; };
    auto Tier = [&](ProbeTier X) {
      return S.TierCount[static_cast<size_t>(X)];
    };
    const uint64_t Checked = Cnt(N::Check);
    if (Checked + Cnt(N::OneShot) != R.Stats.SolverQueries)
      Fail(Seed, "decorated checks + one-shot queries != engine queries");
    if (Cnt(N::SessionOpen) != R.Stats.SolverSessions)
      Fail(Seed, "decorated session opens != engine sessions");
    // The engine merges exactly when the policy accepts a candidate.
    if (W.Workers == 1 && S.SimilarAccepted != R.Stats.Merges)
      Fail(Seed, "accepted similar() calls != engine merges");
    // Solver accounting from the bench's own classification: the four
    // cache tiers are read from their hit counters, a SAT solve from the
    // result counters a decided check moves, and a check that moved
    // neither is unanswered and breaks the sum. Each cache tier's count
    // must also match the engine's counter for it.
    uint64_t TierSum = 0;
    for (size_t I = 0; I < static_cast<size_t>(ProbeTier::Unanswered); ++I)
      TierSum += S.TierCount[I];
    if (TierSum != Checked || S.TierConflicts != 0 ||
        Tier(ProbeTier::Verdict) != R.Stats.SolverVerdictCacheHits ||
        Tier(ProbeTier::Model) != R.Stats.SolverEvalSatShortcuts ||
        Tier(ProbeTier::Core) != R.Stats.SolverCoreCacheHits ||
        Tier(ProbeTier::Poison) != R.Stats.SolverPoisonedQueries)
      Fail(Seed, "solver tier accounting does not add up");
    // Span accounting. engine.self_s is defined as the run span minus the
    // union of its direct children, and spans on one thread nest, so at
    // one worker this holds by construction: it guards the tracer's own
    // bookkeeping (a span closed out of order), not the mirror's fidelity.
    // 1 us of slack per span covers clock granularity.
    if (S.EngineSelfS < 0)
      Fail(Seed, "negative engine self time");
    if (W.Workers == 1) {
      const double Slack = 1e-6 * static_cast<double>(S.Spans);
      if (S.ChildSumS - S.ChildUnionS > Slack ||
          std::abs(S.ChildSumS + S.EngineSelfS - S.RunS) > Slack)
        Fail(Seed, "child spans + engine self time != run span");
    }

    auto Put = [&](const char *Name, double V) { Layer[Name].push_back(V); };
    const EngineStats &ES = R.Stats;
    Put("engine.instructions", ES.Steps);
    Put("engine.forks", ES.Forks);
    Put("engine.completed_states", ES.CompletedStates);
    Put("engine.self_s", S.EngineSelfS);
    Put("searcher.calls", Cnt(N::SearcherSelect) + Cnt(N::SearcherAdd) +
                              Cnt(N::SearcherRemove));
    Put("searcher.s", Self(N::SearcherSelect) + Self(N::SearcherAdd) +
                          Self(N::SearcherRemove));
    Put("searcher.ff_selections", ES.FastForwardSelections);
    Put("merge.similar_calls", Cnt(N::MergeSimilar));
    Put("merge.s", Self(N::MergeSimilar) + Self(N::MergeHash));
    Put("merge.merges", ES.Merges);
    Put("merge.ites", ES.MergedItes);
    Put("merge.accept_ratio",
        Cnt(N::MergeSimilar)
            ? static_cast<double>(ES.Merges) / Cnt(N::MergeSimilar)
            : 0.0);
    Put("solver.sessions", Cnt(N::SessionOpen));
    Put("solver.session_ops_s", Self(N::SessionOpen) + Self(N::SessionOp));
    Put("solver.checks", Checked);
    Put("solver.check_s", Self(N::Check));
    Put("solver.check_us.p50", S.CheckUsP50);
    Put("solver.check_us.p99", S.CheckUsP99);
    Put("solver.verdict_hits", Tier(ProbeTier::Verdict));
    Put("solver.model_hits", Tier(ProbeTier::Model));
    Put("solver.core_hits", Tier(ProbeTier::Core));
    Put("solver.poison_refusals", Tier(ProbeTier::Poison));
    Put("solver.sat_solves", Tier(ProbeTier::Sat));
    auto TierS = [&](ProbeTier X) { return S.TierS[static_cast<size_t>(X)]; };
    Put("solver.verdict_s", TierS(ProbeTier::Verdict));
    Put("solver.model_s", TierS(ProbeTier::Model));
    Put("solver.core_s", TierS(ProbeTier::Core));
    Put("solver.sat_s", TierS(ProbeTier::Sat));
    Put("solver.hit_ratio",
        Checked ? static_cast<double>(Tier(ProbeTier::Verdict) +
                                      Tier(ProbeTier::Model) +
                                      Tier(ProbeTier::Core)) /
                      Checked
                : 0.0);
    Put("solver.encode_s", S.EncodeS);
    Put("solver.encode_nodes", S.EncodeNodes);
    Put("solver.search_s", S.SearchS);
    Put("solver.unknowns", S.Unknowns);
    Put("testgen.models", S.OneShotModels);
    Put("testgen.s", S.OneShotModelS);
    uint64_t DepthHighWater = 0;
    for (uint64_t D : ES.FrontierDepthHighWater)
      DepthHighWater = std::max(DepthHighWater, D);
    Put("frontier.steals", ES.FrontierSteals);
    Put("frontier.depth_hw", DepthHighWater);
    Put("testgen.queued", ES.TestGenQueued);
    Put("par.busy_frac", U.CpuS / (Threads * U.WallS));
    Put("trace.spans", S.Spans);
  });
  // The last traced run's spans, written once the measuring has ended.
  const std::string SpansPath = A.OutDir + "spans-" + W.Name + ".txt";
  std::FILE *F = std::fopen(SpansPath.c_str(), "w");
  const bool Wrote = F && LastTrace && LastTrace->write(F);
  if (!F || std::fclose(F) != 0 || !Wrote)
    Fail(Seeds.back(), "could not write " + SpansPath);
  Checks = "fidelity+accounting: " + std::string(Failed ? "see failures" : "ok");
  Checks += "; spans: " + SpansPath;

  std::vector<double> CompileS, InitS;
  for (const SetupSample &S : Setups) {
    CompileS.push_back(S.CompileS);
    InitS.push_back(S.InitS);
  }
  std::vector<Metric> Metrics;
  addSampled(Metrics, "lang.compile_s", "s", CompileS);
  addSampled(Metrics, "analysis.runner_init_s", "s", InitS);
  static const std::map<std::string, const char *> Units = {
      {"engine.self_s", "s"},        {"searcher.s", "s"},
      {"merge.s", "s"},              {"merge.accept_ratio", "ratio"},
      {"solver.session_ops_s", "s"}, {"solver.check_s", "s"},
      {"solver.check_us.p50", "us"}, {"solver.check_us.p99", "us"},
      {"solver.verdict_s", "s"},     {"solver.model_s", "s"},
      {"solver.core_s", "s"},        {"solver.sat_s", "s"},
      {"solver.hit_ratio", "ratio"}, {"solver.encode_s", "s"},
      {"solver.search_s", "s"},      {"testgen.s", "s"},
      {"par.busy_frac", "ratio"},
  };
  for (const auto &[Name, Samples] : Layer) {
    auto It = Units.find(Name);
    addSampled(Metrics, Name, It == Units.end() ? "count" : It->second,
               Samples);
  }
  addValue(Metrics, "trace.overhead", "ratio",
           median(TracedWall) / median(UntracedWall));
  printResult(A, W, Failed == 0, Attempted, std::min(Failed, Attempted),
              Failures, Metrics, Seeds, Seeds.size(), Checks, First);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n",
                 Argv[0]);
    return 2;
  }
  for (const WorkloadSpec &W : workloads())
    if (A.Workload == W.Name)
      return A.Trace ? runTraced(A, W) : runEndToEnd(A, W);
  std::fprintf(stderr, "unknown workload %s\n", A.Workload.c_str());
  return 2;
}

//===- TracedStack.cpp - Decorated mirror of SymbolicRunner ---------------===//
//
// Part of SymMerge. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Each step below follows the same step of core/Driver.cpp, in the same
// order; the only difference is that every Solver, Searcher and
// MergePolicy handed to the engine is wrapped in a Trace.h decorator.
//
//===----------------------------------------------------------------------===//

#include "TracedStack.h"

#include "solver/CoreCache.h"
#include "solver/ModelCache.h"
#include "solver/PoisonCache.h"

#include <algorithm>

using namespace e2e;
using namespace symmerge;

std::unique_ptr<Solver> TracedRunner::makeSolverStack() {
  CoreSolverOptions CSO;
  CSO.ConflictBudget = Cfg.SolverConflictBudget;
  CSO.WallBudgetSeconds = Cfg.SolveBudgetMs / 1000.0;
  CSO.PoisonMemoryDeltaBytes = Cfg.SolveMemoryDeltaLimit;
  CSO.IncrementalSessions = Cfg.SolverIncremental;
  CSO.GroupSessions = Cfg.SolverGroupSessions;
  CSO.Verdicts = VerdictCache;
  CSO.Models = Models;
  CSO.Cores = Cores;
  CSO.Poison = Poison;
  std::unique_ptr<Solver> S = createCoreSolver(Ctx, std::move(CSO));
  if (Cfg.SolverCache)
    S = createCachingSolver(Ctx, std::move(S));
  if (Cfg.SolverSimplify)
    S = createSimplifyingSolver(Ctx, std::move(S));
  if (Cfg.SolverIndependence)
    S = createIndependenceSolver(Ctx, std::move(S));
  return std::make_unique<TimedSolver>(Ctx, std::move(S), T);
}

TracedRunner::TracedRunner(const Module &M, SymbolicRunner::Config C,
                           Tracer &T)
    : M(M), Cfg(C), T(T), PI(M), Cov(M) {
  if (Cfg.SolverVerdictCache && Cfg.SolverIncremental) {
    VerdictCacheOptions VCO;
    VCO.MaxEntries = Cfg.VerdictCacheLimit;
    VerdictCache = createVerdictCache(VCO);
  }
  if (Cfg.SolverModelCache) {
    ModelCacheOptions MCO;
    MCO.MaxEntries = Cfg.ModelCacheLimit;
    MCO.SignatureFilter = Cfg.SolverSignatureFilters;
    Models = createModelCache(MCO);
  }
  if (Cfg.SolverCoreCache && Cfg.SolverIncremental) {
    CoreCacheOptions CCO;
    CCO.MaxEntries = Cfg.CoreCacheLimit;
    CCO.SignatureFilter = Cfg.SolverSignatureFilters;
    Cores = createCoreCache(CCO);
  }
  if (Cfg.SolverPoisonCache && Cfg.SolverIncremental) {
    PoisonCacheOptions PCO;
    PCO.MaxEntries = Cfg.PoisonCacheLimit;
    Poison = createPoisonCache(PCO);
  }
  TheSolver = makeSolverStack();
  Cfg.Engine.AsyncTestGen = Cfg.Engine.AsyncTestGen && Cfg.AsyncTestGen;
  Cfg.Engine.TestGenThreads =
      std::max(Cfg.Engine.TestGenThreads, Cfg.TestGenThreads);
  Cfg.Engine.PerStateSessions =
      Cfg.Engine.PerStateSessions && Cfg.SolverPerStateSessions;
  if (Cfg.SolverConflictBudget != 0 || Cfg.SolveBudgetMs != 0)
    Cfg.Engine.FeasiblePathConditions = false;
  using MergeMode = SymbolicRunner::MergeMode;
  if (Cfg.Merge == MergeMode::QCE || Cfg.Merge == MergeMode::QCEFull ||
      Cfg.UseDSM)
    QCEInfo.emplace(PI, Cfg.QCE);
  std::unique_ptr<MergePolicy> Inner;
  switch (Cfg.Merge) {
  case MergeMode::None:
    Inner = createMergeNonePolicy();
    break;
  case MergeMode::All:
    Inner = createMergeAllPolicy();
    break;
  case MergeMode::QCE:
    Inner = createQCEPolicy(*QCEInfo);
    break;
  case MergeMode::QCEFull:
    Inner = createQCEFullPolicy(*QCEInfo);
    break;
  }
  Policy = std::make_unique<TimedMergePolicy>(std::move(Inner), T);
  switch (Cfg.Policy) {
  case PolicyKind::None:
    break;
  case PolicyKind::PathCover:
    ExpPolicy = createPathCoverPolicy(PI, Cov);
    break;
  case PolicyKind::Multiplicity:
    ExpPolicy = createMultiplicityPolicy();
    break;
  }
  switch (Cfg.Predictor) {
  case PredictorKind::None:
    break;
  case PredictorKind::FreshBranch:
    ExpPredictor = createFreshBranchPredictor(Cov);
    break;
  case PredictorKind::Phase:
    ExpPredictor = createPhaseBranchPredictor();
    break;
  case PredictorKind::Structure:
    ExpPredictor = createStructureBranchPredictor();
    break;
  }
  Cfg.Engine.Policy = ExpPolicy;
  Cfg.Engine.Predictor = ExpPredictor;
  Cfg.Engine.AdaptiveBudgets = Cfg.AdaptiveBudgets;
  Cfg.Engine.AdaptiveBudgetBase = Cfg.SolverConflictBudget;
}

std::unique_ptr<Searcher> TracedRunner::makeDrivingSearcher(uint64_t Seed) {
  using Strategy = SymbolicRunner::Strategy;
  if (ExpPolicy)
    return createPrioritySearcher(ExpPolicy);
  switch (Cfg.Driving) {
  case Strategy::DFS:
    return createDFSSearcher();
  case Strategy::BFS:
    return createBFSSearcher();
  case Strategy::Random:
    return createRandomSearcher(Seed);
  case Strategy::RandomPath:
    return createRandomPathSearcher(Seed);
  case Strategy::Coverage:
    return createCoverageSearcher(PI, Cov, Seed);
  case Strategy::Topological:
    return createTopologicalSearcher(PI);
  }
  return createRandomSearcher(Seed);
}

std::unique_ptr<Searcher> TracedRunner::makeSearcher(uint64_t Seed) {
  std::unique_ptr<Searcher> S = makeDrivingSearcher(Seed);
  if (Cfg.UseDSM)
    S = createDynamicMergeSearcher(PI, *Policy, std::move(S));
  return std::make_unique<TimedSearcher>(std::move(S), T);
}

RunResult TracedRunner::run() {
  Cov.reset();
  std::unique_ptr<Searcher> Search = makeSearcher(Cfg.Seed);
  Engine E(Ctx, PI, *TheSolver, *Policy, *Search, Cov, Cfg.Engine);
  if (Cfg.Engine.Workers > 1) {
    Engine::WorkerResources Res;
    Res.MakeSolver = [this] { return makeSolverStack(); };
    Res.MakeSearcher = [this](unsigned Partition) {
      return makeSearcher(Cfg.Seed + Partition);
    };
    Res.TestGenModels = Models;
    E.setWorkerResources(std::move(Res));
  }
  Scope S(T, SpanName::Run);
  return E.run();
}

//===- TracedStack.h - Decorated mirror of SymbolicRunner -------*- C++ -*-===//
//
// Part of SymMerge. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TracedRunner assembles the same stack core/Driver.cpp builds for a
/// SymbolicRunner::Config — Engine, the createCoreSolver stack with its
/// wrapping layers and shared caches, the MergePolicy, the driving
/// Searcher with the DSM wrapper, and the per-worker factories — but with
/// every Solver, Searcher and MergePolicy wrapped in the timing
/// decorators of Trace.h. The benchmark checks at workers=1 that a traced
/// run reproduces the untraced SymbolicRunner run's counts exactly, which
/// is what shows this mirror has not drifted from Driver.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef SYMMERGE_E2EBENCH_TRACEDSTACK_H
#define SYMMERGE_E2EBENCH_TRACEDSTACK_H

#include "Trace.h"

#include "core/Driver.h"

#include <memory>
#include <optional>

namespace e2e {

class TracedRunner {
public:
  TracedRunner(const symmerge::Module &M, symmerge::SymbolicRunner::Config C,
               Tracer &T);

  /// Runs the engine once under a Run span.
  symmerge::RunResult run();

  symmerge::ExprContext &context() { return Ctx; }
  const symmerge::CoverageTracker &coverage() const { return Cov; }

private:
  std::unique_ptr<symmerge::Solver> makeSolverStack();
  std::unique_ptr<symmerge::Searcher> makeDrivingSearcher(uint64_t Seed);
  /// Driving searcher, DSM-wrapped when configured, then decorated.
  std::unique_ptr<symmerge::Searcher> makeSearcher(uint64_t Seed);

  const symmerge::Module &M;
  symmerge::SymbolicRunner::Config Cfg;
  Tracer &T;
  symmerge::ExprContext Ctx;
  symmerge::ProgramInfo PI;
  std::optional<symmerge::QCEAnalysis> QCEInfo;
  std::shared_ptr<symmerge::SessionVerdictCache> VerdictCache;
  std::shared_ptr<symmerge::ModelCache> Models;
  std::shared_ptr<symmerge::CoreCache> Cores;
  std::shared_ptr<symmerge::PoisonCache> Poison;
  std::unique_ptr<symmerge::Solver> TheSolver;
  std::unique_ptr<symmerge::MergePolicy> Policy;
  std::shared_ptr<symmerge::ExplorationPolicy> ExpPolicy;
  std::shared_ptr<symmerge::BranchPredictor> ExpPredictor;
  symmerge::CoverageTracker Cov;
};

} // namespace e2e

#endif // SYMMERGE_E2EBENCH_TRACEDSTACK_H

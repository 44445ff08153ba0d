//===- Trace.h - In-memory span recorder and layer decorators ---*- C++ -*-===//
//
// Part of SymMerge. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tracing for the traced benchmark run. Spans are recorded only at the
/// public interfaces of the layers (Solver / SolverSession, Searcher,
/// MergePolicy): each decorator below wraps one implementation, opens a
/// span around every forwarded call, and otherwise behaves exactly like
/// the wrapped object. Nothing inside src/ is instrumented.
///
/// A span is (name, start, end, parent) plus a small tag (the solver
/// probe tier a check was answered by, or whether a one-shot query asked
/// for a model). Each thread appends to its own log, so workers and the
/// test-generation pool record without contention; the logs stay in
/// memory until the run ends and are then aggregated and written out.
/// Every span of one run carries the tracer's run id.
///
//===----------------------------------------------------------------------===//

#ifndef SYMMERGE_E2EBENCH_TRACE_H
#define SYMMERGE_E2EBENCH_TRACE_H

#include "core/MergePolicy.h"
#include "core/Searcher.h"
#include "solver/Solver.h"

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace e2e {

/// The decorated boundaries. Each span has exactly one of these names.
enum class SpanName : uint8_t {
  Run,            ///< Engine::run(), the root of a run.
  SearcherSelect, ///< Searcher::select (DSM included).
  SearcherAdd,
  SearcherRemove,
  MergeSimilar, ///< MergePolicy::similar; tag 1 = accepted.
  MergeHash,    ///< MergePolicy::similarityHash.
  SessionOpen,  ///< Solver::openSession.
  SessionOp,    ///< push / pop / assert_ / session destruction.
  Check,        ///< Session check; tag = the ProbeTier that answered it.
  OneShot,      ///< Solver::checkSat; tag 1 = model requested (testgen).
  Count
};

const char *spanNameString(SpanName N);

/// Which tier of the session probe pipeline answered a check, read from
/// the thread-local solverStats() delta across the call: a cache tier
/// from its hit counter, Sat from the result counters (SatResults,
/// UnsatResults, UnknownsObserved) when no hit counter moved. A check
/// that moved no counter at all is Unanswered, an accounting defect.
enum class ProbeTier : uint8_t {
  Verdict,
  Model,
  Core,
  Poison,
  Sat,
  Unanswered,
  Count
};

/// One recorded span. Parent indexes the same thread's log; RootParent
/// means the run span itself (the top level of a worker or pool thread).
struct Span {
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  uint32_t Parent = 0;
  SpanName Name = SpanName::Run;
  uint8_t Tag = 0;
};

inline constexpr uint32_t RootParent = UINT32_MAX;

/// Per-layer aggregates of one traced run.
struct TraceSummary {
  struct PerName {
    uint64_t Count = 0;
    double SelfS = 0; ///< Durations minus direct children.
  };
  std::array<PerName, static_cast<size_t>(SpanName::Count)> Names{};
  std::array<uint64_t, static_cast<size_t>(ProbeTier::Count)> TierCount{};
  std::array<double, static_cast<size_t>(ProbeTier::Count)> TierS{};
  uint64_t SimilarAccepted = 0;
  uint64_t OneShotModels = 0; ///< One-shot queries that asked for a model.
  double OneShotModelS = 0;
  /// Checks whose counters contradict each other (an accounting defect):
  /// more than one hit counter moved, the result counters did not move
  /// exactly once, or a cache tier's answer also reports search time.
  uint64_t TierConflicts = 0;
  uint64_t Unknowns = 0;
  double EncodeS = 0;
  double SearchS = 0;
  uint64_t EncodeNodes = 0;
  double CheckUsP50 = 0;
  double CheckUsP99 = 0;
  double RunS = 0;         ///< The run span.
  double ChildSumS = 0;    ///< Sum of the run span's direct children.
  double ChildUnionS = 0;  ///< Length of the union of those intervals.
  double EngineSelfS = 0;  ///< RunS - ChildUnionS.
  uint64_t Spans = 0;
};

/// Collects the spans of one run. A thread records into at most one live
/// tracer at a time (each thread caches its log for the latest tracer).
class Tracer {
public:
  explicit Tracer(uint64_t RunId);
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// Opens a span on the calling thread; returns its handle for end().
  uint32_t begin(SpanName N);
  void end(uint32_t Handle, uint8_t Tag = 0);

  /// Solver-layer sums that come from the wrapped call's results rather
  /// than from the clock.
  void addSolverWork(double EncodeS, double SearchS, uint64_t EncodeNodes,
                     bool Unknown, bool TierConflict);

  /// Aggregates every thread's log. Call after all recording threads
  /// have been joined (Engine::run() joins its workers and pool).
  TraceSummary summarize() const;

  /// Writes every span as `run_id thread index parent name tag start_ns
  /// end_ns` lines. Returns false on an I/O error.
  bool write(std::FILE *Out) const;

private:
  struct ThreadLog {
    std::vector<Span> Spans;
    std::vector<uint32_t> Open;
    double EncodeS = 0;
    double SearchS = 0;
    uint64_t EncodeNodes = 0;
    uint64_t Unknowns = 0;
    uint64_t TierConflicts = 0;
  };
  ThreadLog &local();

  const uint64_t RunId;
  const uint64_t Epoch; ///< Process-unique; keys the thread-local cache.
  mutable std::mutex LogsMu;
  std::vector<std::unique_ptr<ThreadLog>> Logs;
};

/// RAII span.
class Scope {
public:
  Scope(Tracer &T, SpanName N) : T(T), H(T.begin(N)) {}
  ~Scope() { T.end(H, Tag); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  void tag(uint8_t V) { Tag = V; }

private:
  Tracer &T;
  uint32_t H;
  uint8_t Tag = 0;
};

/// Solver decorator: times one-shot queries and session opens, and hands
/// out TimedSessions wrapping the inner solver's sessions.
class TimedSolver : public symmerge::Solver {
public:
  TimedSolver(symmerge::ExprContext &Ctx,
              std::unique_ptr<symmerge::Solver> Inner, Tracer &T)
      : Solver(Ctx), Inner(std::move(Inner)), T(T) {}

  symmerge::SolverResult checkSat(const symmerge::Query &Q,
                                  symmerge::VarAssignment *Model) override;
  std::unique_ptr<symmerge::SolverSession> openSession() override {
    return openSession(symmerge::SessionOptions{});
  }
  std::unique_ptr<symmerge::SolverSession>
  openSession(const symmerge::SessionOptions &Opts) override;
  bool supportsNativeSessions() const override {
    return Inner->supportsNativeSessions();
  }

private:
  std::unique_ptr<symmerge::Solver> Inner;
  Tracer &T;
};

/// Searcher decorator: times select/add/remove, forwards everything else.
class TimedSearcher : public symmerge::Searcher {
public:
  TimedSearcher(std::unique_ptr<symmerge::Searcher> Inner, Tracer &T)
      : Inner(std::move(Inner)), T(T) {}

  symmerge::ExecutionState *select() override {
    Scope S(T, SpanName::SearcherSelect);
    return Inner->select();
  }
  void add(symmerge::ExecutionState *St) override {
    Scope S(T, SpanName::SearcherAdd);
    Inner->add(St);
  }
  void remove(symmerge::ExecutionState *St) override {
    Scope S(T, SpanName::SearcherRemove);
    Inner->remove(St);
  }
  bool empty() const override { return Inner->empty(); }
  const char *name() const override { return Inner->name(); }
  uint64_t fastForwardSelections() const override {
    return Inner->fastForwardSelections();
  }
  uint64_t policyPicks() const override { return Inner->policyPicks(); }
  void worklist(std::vector<symmerge::ExecutionState *> &Out) const override {
    Inner->worklist(Out);
  }
  std::vector<uint64_t> saveCursor() const override {
    return Inner->saveCursor();
  }
  void restoreCursor(const std::vector<uint64_t> &Cursor) override {
    Inner->restoreCursor(Cursor);
  }

private:
  std::unique_ptr<symmerge::Searcher> Inner;
  Tracer &T;
};

/// MergePolicy decorator: times the similarity relation and hash.
class TimedMergePolicy : public symmerge::MergePolicy {
public:
  TimedMergePolicy(std::unique_ptr<symmerge::MergePolicy> Inner, Tracer &T)
      : MergePolicy(Inner->name()), Inner(std::move(Inner)), T(T) {}

  bool wantsMerging() const override { return Inner->wantsMerging(); }
  bool similar(const symmerge::ExecutionState &A,
               const symmerge::ExecutionState &B) const override {
    Scope S(T, SpanName::MergeSimilar);
    bool Yes = Inner->similar(A, B);
    S.tag(Yes);
    return Yes;
  }
  uint64_t similarityHash(const symmerge::ExecutionState &St) const override {
    Scope S(T, SpanName::MergeHash);
    return Inner->similarityHash(St);
  }

private:
  std::unique_ptr<symmerge::MergePolicy> Inner;
  Tracer &T;
};

} // namespace e2e

#endif // SYMMERGE_E2EBENCH_TRACE_H

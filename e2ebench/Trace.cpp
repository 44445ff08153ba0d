//===- Trace.cpp - In-memory span recorder and layer decorators -----------===//
//
// Part of SymMerge. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>

using namespace e2e;
using namespace symmerge;

namespace {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::atomic<uint64_t> NextEpoch{1};

/// The calling thread's log in the most recent tracer it recorded into.
/// A tracer's epoch is never reused, so a stale entry is simply replaced.
struct ThreadLogCache {
  uint64_t Epoch = 0;
  void *Log = nullptr;
};
thread_local ThreadLogCache TLCache;

double seconds(uint64_t Ns) { return static_cast<double>(Ns) * 1e-9; }

/// Session decorator: times push/pop/assert_ and destruction as session
/// operations, times checks and classifies each by the probe tier whose
/// counter moved.
class TimedSession final : public SolverSession {
public:
  TimedSession(ExprContext &Ctx, std::unique_ptr<SolverSession> Inner,
               Tracer &T)
      : SolverSession(Ctx), Inner(std::move(Inner)), T(T) {}

  ~TimedSession() override {
    // Destroying a native session flushes encode time it accrued since
    // its last check into solverStats(); keep it in the encode total.
    const double E0 = solverStats().EncodeSeconds;
    Scope S(T, SpanName::SessionOp);
    Inner.reset();
    T.addSolverWork(solverStats().EncodeSeconds - E0, 0, 0, false, false);
  }

  void push() override {
    Scope S(T, SpanName::SessionOp);
    Inner->push();
  }
  void pop() override {
    Scope S(T, SpanName::SessionOp);
    Inner->pop();
  }
  void assert_(ExprRef E) override {
    Scope S(T, SpanName::SessionOp);
    Inner->assert_(E);
  }

  using SolverSession::checkSatAssuming;
  SolverResponse checkSat(bool WantModel) override {
    return check(nullptr, WantModel);
  }
  SolverResponse checkSatAssuming(const std::vector<ExprRef> &Assumptions,
                                  bool WantModel) override {
    return check(&Assumptions, WantModel);
  }

  SessionHealth health() const override { return Inner->health(); }
  void setConflictBudgetOverride(uint64_t Conflicts) override {
    Inner->setConflictBudgetOverride(Conflicts);
  }

private:
  SolverResponse check(const std::vector<ExprRef> *Assumptions,
                       bool WantModel) {
    const SolverQueryStats &St = solverStats();
    auto Results = [&] {
      return St.SatResults + St.UnsatResults + St.UnknownsObserved;
    };
    const uint64_t V0 = St.VerdictCacheHits, M0 = St.EvalSatShortcuts,
                   C0 = St.CoreCacheHits, P0 = St.PoisonedQueries,
                   N0 = St.EncodeNodesLowered, R0 = Results();
    Scope S(T, SpanName::Check);
    SolverResponse R = Assumptions
                           ? Inner->checkSatAssuming(*Assumptions, WantModel)
                           : Inner->checkSat(WantModel);
    const uint64_t DV = St.VerdictCacheHits - V0,
                   DM = St.EvalSatShortcuts - M0,
                   DC = St.CoreCacheHits - C0, DP = St.PoisonedQueries - P0,
                   DR = Results() - R0;
    ProbeTier Tier = DV   ? ProbeTier::Verdict
                     : DM ? ProbeTier::Model
                     : DC ? ProbeTier::Core
                     : DP ? ProbeTier::Poison
                     : DR ? ProbeTier::Sat
                          : ProbeTier::Unanswered;
    S.tag(static_cast<uint8_t>(Tier));
    const bool Conflict =
        DV + DM + DC + DP > 1 || DR != 1 ||
        (Tier != ProbeTier::Sat && R.SolveSeconds > 0);
    T.addSolverWork(R.EncodeSeconds, R.SolveSeconds,
                    St.EncodeNodesLowered - N0,
                    R.Result == SolverResult::Unknown, Conflict);
    return R;
  }

  std::unique_ptr<SolverSession> Inner;
  Tracer &T;
};

} // namespace

const char *e2e::spanNameString(SpanName N) {
  switch (N) {
  case SpanName::Run:
    return "run";
  case SpanName::SearcherSelect:
    return "searcher.select";
  case SpanName::SearcherAdd:
    return "searcher.add";
  case SpanName::SearcherRemove:
    return "searcher.remove";
  case SpanName::MergeSimilar:
    return "merge.similar";
  case SpanName::MergeHash:
    return "merge.similarity_hash";
  case SpanName::SessionOpen:
    return "solver.open_session";
  case SpanName::SessionOp:
    return "solver.session_op";
  case SpanName::Check:
    return "solver.check";
  case SpanName::OneShot:
    return "solver.one_shot";
  case SpanName::Count:
    break;
  }
  return "?";
}

Tracer::Tracer(uint64_t RunId)
    : RunId(RunId), Epoch(NextEpoch.fetch_add(1)) {}

Tracer::ThreadLog &Tracer::local() {
  if (TLCache.Epoch != Epoch) {
    auto Log = std::make_unique<ThreadLog>();
    Log->Spans.reserve(1u << 16);
    std::lock_guard<std::mutex> Lock(LogsMu);
    TLCache = {Epoch, Log.get()};
    Logs.push_back(std::move(Log));
  }
  return *static_cast<ThreadLog *>(TLCache.Log);
}

uint32_t Tracer::begin(SpanName N) {
  ThreadLog &L = local();
  const uint32_t Handle = static_cast<uint32_t>(L.Spans.size());
  Span S;
  S.Parent = L.Open.empty() ? RootParent : L.Open.back();
  S.Name = N;
  L.Open.push_back(Handle);
  S.StartNs = nowNs();
  L.Spans.push_back(S);
  return Handle;
}

void Tracer::end(uint32_t Handle, uint8_t Tag) {
  const uint64_t Now = nowNs();
  ThreadLog &L = local();
  L.Spans[Handle].EndNs = Now;
  L.Spans[Handle].Tag = Tag;
  L.Open.pop_back();
}

void Tracer::addSolverWork(double EncodeS, double SearchS,
                           uint64_t EncodeNodes, bool Unknown,
                           bool TierConflict) {
  ThreadLog &L = local();
  L.EncodeS += EncodeS;
  L.SearchS += SearchS;
  L.EncodeNodes += EncodeNodes;
  L.Unknowns += Unknown;
  L.TierConflicts += TierConflict;
}

TraceSummary Tracer::summarize() const {
  std::lock_guard<std::mutex> Lock(LogsMu);
  TraceSummary Sum;

  // Locate the run span: the one Run-named span, on the thread that
  // called Engine::run().
  const ThreadLog *RunLog = nullptr;
  uint32_t RunIdx = 0;
  for (const auto &L : Logs)
    for (uint32_t I = 0; I < L->Spans.size(); ++I)
      if (L->Spans[I].Name == SpanName::Run) {
        RunLog = L.get();
        RunIdx = I;
      }

  std::vector<std::pair<uint64_t, uint64_t>> Children;
  std::vector<uint64_t> CheckNs;
  for (const auto &L : Logs) {
    const std::vector<Span> &Spans = L->Spans;
    std::vector<uint64_t> ChildNs(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent != RootParent)
        ChildNs[S.Parent] += S.EndNs - S.StartNs;
    for (uint32_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      const uint64_t Dur = S.EndNs - S.StartNs;
      TraceSummary::PerName &P = Sum.Names[static_cast<size_t>(S.Name)];
      ++P.Count;
      P.SelfS += seconds(Dur - ChildNs[I]);
      switch (S.Name) {
      case SpanName::Check:
        ++Sum.TierCount[S.Tag];
        Sum.TierS[S.Tag] += seconds(Dur);
        CheckNs.push_back(Dur);
        break;
      case SpanName::OneShot:
        if (S.Tag) {
          ++Sum.OneShotModels;
          Sum.OneShotModelS += seconds(Dur);
        }
        break;
      case SpanName::MergeSimilar:
        Sum.SimilarAccepted += S.Tag;
        break;
      default:
        break;
      }
      // Direct children of the run span: its children on its own thread,
      // and the top-level spans of worker and pool threads.
      const bool ChildOfRun =
          L.get() == RunLog ? S.Parent == RunIdx
                            : S.Parent == RootParent && RunLog != nullptr;
      if (ChildOfRun)
        Children.push_back({S.StartNs, S.EndNs});
    }
    Sum.Spans += Spans.size();
    Sum.EncodeS += L->EncodeS;
    Sum.SearchS += L->SearchS;
    Sum.EncodeNodes += L->EncodeNodes;
    Sum.Unknowns += L->Unknowns;
    Sum.TierConflicts += L->TierConflicts;
  }

  if (RunLog) {
    const Span &R = RunLog->Spans[RunIdx];
    Sum.RunS = seconds(R.EndNs - R.StartNs);
    std::sort(Children.begin(), Children.end());
    uint64_t UnionNs = 0, SumNs = 0, CoverEnd = 0;
    for (const auto &[Start, End] : Children) {
      SumNs += End - Start;
      const uint64_t From = std::max(Start, CoverEnd);
      if (End > From)
        UnionNs += End - From;
      CoverEnd = std::max(CoverEnd, End);
    }
    Sum.ChildSumS = seconds(SumNs);
    Sum.ChildUnionS = seconds(UnionNs);
    Sum.EngineSelfS = Sum.RunS - Sum.ChildUnionS;
  }

  if (!CheckNs.empty()) {
    std::sort(CheckNs.begin(), CheckNs.end());
    // Nearest-rank percentiles.
    auto Pct = [&](double P) {
      size_t Rank = static_cast<size_t>(P * CheckNs.size() + 0.999999);
      Rank = std::min(std::max<size_t>(Rank, 1), CheckNs.size());
      return static_cast<double>(CheckNs[Rank - 1]) * 1e-3;
    };
    Sum.CheckUsP50 = Pct(0.50);
    Sum.CheckUsP99 = Pct(0.99);
  }
  return Sum;
}

bool Tracer::write(std::FILE *Out) const {
  std::lock_guard<std::mutex> Lock(LogsMu);
  for (size_t T = 0; T < Logs.size(); ++T) {
    const std::vector<Span> &Spans = Logs[T]->Spans;
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      const long long Parent =
          S.Parent == RootParent ? -1 : static_cast<long long>(S.Parent);
      if (std::fprintf(Out, "%" PRIu64 " %zu %zu %lld %s %u %" PRIu64
                            " %" PRIu64 "\n",
                       RunId, T, I, Parent, spanNameString(S.Name),
                       static_cast<unsigned>(S.Tag), S.StartNs,
                       S.EndNs) < 0)
        return false;
    }
  }
  return std::fflush(Out) == 0;
}

SolverResult TimedSolver::checkSat(const Query &Q, VarAssignment *Model) {
  const SolverQueryStats &St = solverStats();
  const double E0 = St.EncodeSeconds, C0 = St.CoreSolveSeconds;
  const uint64_t N0 = St.EncodeNodesLowered;
  SolverResult R;
  {
    Scope S(T, SpanName::OneShot);
    S.tag(Model != nullptr);
    R = Inner->checkSat(Q, Model);
  }
  // CoreSolveSeconds includes encoding; the search share is the rest.
  const double DE = St.EncodeSeconds - E0;
  T.addSolverWork(DE, St.CoreSolveSeconds - C0 - DE,
                  St.EncodeNodesLowered - N0, R == SolverResult::Unknown,
                  false);
  return R;
}

std::unique_ptr<SolverSession>
TimedSolver::openSession(const SessionOptions &Opts) {
  std::unique_ptr<SolverSession> Sess;
  {
    Scope S(T, SpanName::SessionOpen);
    Sess = Inner->openSession(Opts);
  }
  return std::make_unique<TimedSession>(Ctx, std::move(Sess), T);
}

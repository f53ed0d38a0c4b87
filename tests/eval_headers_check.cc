// Compile-only hygiene check for the unified round-engine headers: each
// header is included first (so every one is self-contained), and every
// sweeper configuration the engines use is explicitly instantiated (so
// every member — including branches ordinary callers never force — must
// compile warning-clean). The CMake object-library target building this TU
// adds -Werror on top of the project's -Wall -Wextra; it produces no test,
// only a build failure when a header regresses.

#include "query/eval_internal.h"   // IWYU pragma: keep

#include "query/eval_monadic_sweeper.h"  // IWYU pragma: keep

#include "query/eval_binary_sweeper.h"   // IWYU pragma: keep

namespace rpqlearn {
namespace eval_internal {

struct CheckVisitHook {
  void operator()(NodeId, StateId) const {}
};
struct CheckCellFn {
  void operator()(NodeId, StateId, uint64_t) const {}
};

// MonadicSweeper is a plain class; its round machinery is templated on the
// visit hook only, so each hook-taking member is instantiated explicitly.
template void MonadicSweeper::Visit<CheckVisitHook>(NodeId, StateId,
                                                     CheckVisitHook&&);
template void MonadicSweeper::RunRound<CheckVisitHook>(CheckVisitHook&&,
                                                        RoundCounters*);
template void MonadicSweeper::RunCondenseClosure<CheckVisitHook>(
    CheckVisitHook&&, RoundCounters*);

// Both BinarySweeper configurations: the monolithic engine's (no change
// tracking — every `if constexpr (kTracksChanged)` branch is discarded) and
// the incremental layer's tracking one, including the ForEachChangedCell
// drain only MaterializedQuery calls.
template class BinarySweeper<false>;
template class BinarySweeper<true>;
template void BinarySweeper<true>::ForEachChangedCell<CheckCellFn>(
    CheckCellFn&&);

}  // namespace eval_internal
}  // namespace rpqlearn

/**
 * @file
 * Hot-path effect annotations (DESIGN.md Sec. 14).
 *
 * The per-epoch hot loop must stay heap-free, exception-free and
 * deterministic on *every* path, not just the paths the test matrix
 * happens to execute. The densim-hot-effects analyzer
 * (tools/tidy/run_densim_tidy.py) proves that statically: it builds an
 * interprocedural call graph, computes a per-function summary over
 * the effect lattice {allocates, throws, does-IO, ambient-entropy,
 * unordered-iteration-with-escape}, and propagates summaries bottom
 * up from leaves into the functions marked DENSIM_HOT below. Any
 * effect reaching a hot root that is not sanctioned by an annotation
 * is a build-gated finding.
 *
 * The three markers:
 *
 *  - DENSIM_HOT — this function is a hot-loop root: every function
 *    reachable from it is analyzed. On a virtual method the mark
 *    covers the whole override family (a call through the base may
 *    land in any of them).
 *
 *  - DENSIM_ALLOCATES("why this is safe") — this function may touch
 *    the heap (or make an indirect call the analyzer cannot resolve)
 *    and a reviewer has signed off on why that is compatible with the
 *    steady-state zero-heap contract; the canonical reasons are
 *    "container pre-reserved in resetState, growth asserted zero
 *    under DENSIM_CHECKS" and "cold fault-transition edge". The
 *    sanction covers this function's *direct* effects only — callees
 *    carry their own annotations, so every allocating site in the hot
 *    tree is a separately reviewed decision.
 *
 *  - DENSIM_COLD — a deliberate cold endpoint: error paths (panic,
 *    fatal) and diagnostics that abort or escape the epoch contract
 *    by design. Propagation stops here; the function's effects never
 *    reach its hot callers' summaries.
 *
 * The markers expand to nothing and cost zero codegen: the analyzer
 * reads the marker tokens straight from the source.
 */

#ifndef DENSIM_CORE_EFFECTS_HH
#define DENSIM_CORE_EFFECTS_HH

#define DENSIM_HOT
#define DENSIM_COLD
#define DENSIM_ALLOCATES(reason)

#endif // DENSIM_CORE_EFFECTS_HH

//===- analysis/analyzer.h - Module-level dataflow analysis driver --------===//
//
// Drives the typed-stack evaluator (stack_eval.h) to produce evidence
// summaries (evidence.h) for every defined function of a module. Modules
// need not be validated first: the evaluator is the typing engine behind
// wasm::validateFunction, so an ill-typed body is rejected with a
// taxonomy-coded error, never asserted, and yields no evidence.
//
//  1. Per function, run the loop-carry fixpoint (cfg.h: runCarryFixpoint)
//     until the back-edge local tags stabilize (bounded by
//     MaxFixpointPasses — the tag lattice has finite height, so this
//     converges quickly in practice). Its first round also builds the
//     function's CFG, which gives the must-execute mask. Then run one final
//     pass with the EvidenceCollector sink attached.
//  2. Build the direct-call graph and propagate "callee dereferences /
//     stores through its formal" facts bottom-up (bounded by
//     MaxCallGraphPasses for cyclic graphs).
//
// All passes are pure functions of the module bytes — no globals, no
// time/thread dependence — so summaries are deterministic and invariant
// under SNOWWHITE_THREADS (asserted in tests/analysis_test.cpp).
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_ANALYSIS_ANALYZER_H
#define SNOWWHITE_ANALYSIS_ANALYZER_H

#include "analysis/cfg.h"
#include "analysis/evidence.h"
#include "analysis/stack_eval.h"
#include "support/result.h"
#include "wasm/module.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace snowwhite {
namespace analysis {

/// Loop back-edge fixpoint cap. The per-local tag lattice has height <= 3
/// (specific -> widened -> unknown), so honest inputs stabilize in 2-3
/// passes; the cap only guards adversarial inputs against slow convergence.
inline constexpr uint32_t MaxFixpointPasses = 8;

/// Bottom-up call-graph propagation cap (handles recursion cycles).
inline constexpr uint32_t MaxCallGraphPasses = 16;

/// Per-local def-use chains for one function: body indices of instructions
/// writing (local.set/tee) and reading (local.get) each local.
struct LocalDefUse {
  std::vector<std::vector<uint32_t>> Defs; ///< Indexed by local index.
  std::vector<std::vector<uint32_t>> Uses;
};

/// Computes def-use chains for defined function DefinedIndex. Fails only on
/// out-of-range indices; local indices past the function's locals (possible
/// in an untyped body) are skipped.
Result<LocalDefUse> computeDefUse(const wasm::Module &M,
                                  uint32_t DefinedIndex);

/// Analyzes one defined function (fixpoint + evidence collection). The
/// module need not be validated: a typing error is reported, never
/// asserted, and such a function gets no summary.
Result<FunctionSummary> analyzeFunction(const wasm::Module &M,
                                        uint32_t DefinedIndex);

/// Receives each function's CFG as analyzeModule finishes with it. The
/// graph is dropped when the call returns.
using CfgVisitor = std::function<void(const ControlFlowGraph &)>;

/// Analyzes every defined function and closes the summaries over the direct
/// call graph. Runs in time linear in the module size (times the small
/// fixpoint caps); never allocates more than O(functions + params) summary
/// state. OnCfg, when set, sees each function's CFG, built once inside the
/// fixpoint. Fails, naming the function, if any function fails analysis.
Result<ModuleSummary> analyzeModule(const wasm::Module &M,
                                    const CfgVisitor &OnCfg = {});

/// Evidence lookup for one prediction query: ParamIndex >= 0 selects a
/// parameter, ParamIndex < 0 the return slot. Returns an empty QueryEvidence
/// when the function has no summary (e.g. tag tracking disabled).
QueryEvidence queryEvidence(const ModuleSummary &Summary,
                            uint32_t DefinedIndex, int ParamIndex);

} // namespace analysis
} // namespace snowwhite

#endif // SNOWWHITE_ANALYSIS_ANALYZER_H

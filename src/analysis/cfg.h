//===- analysis/cfg.h - Per-function control-flow graph --------------------===//
//
// An explicit control-flow graph over a WebAssembly function body. It is
// the shared analysis IR:
//
//  * basic blocks partition the body in body order (every control
//    instruction is its own single-instruction block; straight-line runs
//    coalesce), plus one synthetic entry and one synthetic exit block;
//  * typed edges for block/loop/if/else/br/br_if/br_table/return/
//    unreachable, with back edges (branches to a `loop` header) flagged;
//  * reverse-postorder numbering — body order *is* a reverse postorder for
//    structured wasm, because every non-back edge goes forward in the body
//    (a property the test suite checks on every corpus function);
//  * an iterative dominator tree (Cooper-Harvey-Kennedy over RPO), natural
//    loops from back edges, and a per-block dominates-exit bit that powers
//    the path-sensitive ("must") evidence used by the serving gate.
//
// There is one control walk: the edges come from the typing engine's frame
// stack (wasm/typing.h), read after each step of a typing pass, so the CFG
// has no frame discipline or rejections of its own. buildCfg drives a bare
// engine and accepts exactly what evaluateFunction accepts, with the same
// code and message.
//
// runCarryFixpoint is the analyzer's loop-carry fixpoint: the machine state
// is snapshotted at every `loop`, and each round after the first resumes
// from the earliest loop whose carry changed (skipped prefixes could only
// re-merge values already in the carry — the tag join is idempotent — so
// the rounds and carry equal re-running the whole body). Its first round
// builds the CFG on the way, so analysis builds each function's CFG once.
// tests/golden/evidence_summaries*.txt pin the resulting summaries.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_ANALYSIS_CFG_H
#define SNOWWHITE_ANALYSIS_CFG_H

#include "analysis/stack_eval.h"
#include "support/result.h"
#include "wasm/module.h"

#include <cstdint>
#include <string>
#include <vector>

namespace snowwhite {
namespace analysis {

/// Sentinel block id ("none").
constexpr uint32_t NoBlock = 0xffffffffu;

/// Why an edge exists. One enumerator per control construct the tentpole
/// names; `Fall` covers straight-line continuation (including a completed
/// then-arm or inner `end` falling to its join point).
enum class EdgeKind : uint8_t {
  Fall,        ///< Straight-line fall-through.
  BlockEntry,  ///< `block` entering its body.
  LoopEntry,   ///< `loop` entering its body (the loop header).
  IfTrue,      ///< `if` taken edge into the then-arm.
  IfFalse,     ///< `if` false edge to the `else` arm (or past `end`).
  Br,          ///< Unconditional `br`.
  BrIf,        ///< `br_if` taken edge (the fall-through edge is Fall).
  BrTable,     ///< One `br_table` fan-out target (deduplicated per target).
  Return,      ///< `return` to the exit block.
  Unreachable, ///< `unreachable` trap edge to the exit block.
};

const char *edgeKindName(EdgeKind Kind);

struct CfgEdge {
  uint32_t From = NoBlock;
  uint32_t To = NoBlock;
  EdgeKind Kind = EdgeKind::Fall;
  bool Back = false; ///< Branch to a `loop` header (the only backward edges).
};

struct BasicBlock {
  uint32_t Id = 0;
  size_t First = 0; ///< Body index of the first instruction.
  size_t End = 0;   ///< One past the last instruction ([First, End)).
  bool IsEntry = false;
  bool IsExit = false;
  bool IsLoopInstr = false;  ///< Single-instruction `loop` block.
  bool IsLoopHeader = false; ///< Target of at least one back edge.
  std::vector<uint32_t> Succs; ///< Edge indices out of this block.
  std::vector<uint32_t> Preds; ///< Edge indices into this block.
  uint32_t Rpo = NoBlock;  ///< Reverse-postorder number; NoBlock if dead.
  uint32_t IDom = NoBlock; ///< Immediate dominator; NoBlock if dead.
  uint32_t LoopDepth = 0;  ///< Natural-loop nesting depth.
  bool DominatesExit = false; ///< Lies on every entry->exit path.
};

struct ControlFlowGraph {
  uint32_t DefinedIndex = 0;
  /// Blocks[0] is the synthetic entry, Blocks.back() the synthetic exit;
  /// everything between partitions the body in body order.
  std::vector<BasicBlock> Blocks;
  std::vector<CfgEdge> Edges;
  /// Reachable block ids in reverse postorder (== body order).
  std::vector<uint32_t> Rpo;
  /// Loop-header block ids in body order.
  std::vector<uint32_t> LoopHeaders;
  uint32_t MaxLoopDepth = 0;

  uint32_t entryId() const { return 0; }
  uint32_t exitId() const {
    return static_cast<uint32_t>(Blocks.size()) - 1;
  }
  /// True when A dominates B (both reachable; reflexive).
  bool dominates(uint32_t A, uint32_t B) const;
};

/// Builds the CFG for defined function DefinedIndex with one bare typing
/// pass. Rejects exactly what evaluateFunction rejects, with the same code
/// and message.
Result<ControlFlowGraph> buildCfg(const wasm::Module &M,
                                  uint32_t DefinedIndex);

/// Per-instruction "executes on every entry->exit path" mask (true iff the
/// containing block dominates the synthetic exit). All-false when the exit
/// is unreachable (the body can only trap or loop forever) — the gate then
/// never claims must-evidence, which is the conservative direction.
std::vector<bool> mustExecuteMask(const ControlFlowGraph &Cfg,
                                  size_t BodySize);

/// Result of the loop-carry fixpoint.
struct CarryFixpoint {
  LoopCarry Carry;
  uint32_t Rounds = 0;
  /// Rounds (after the first) that resumed from a loop snapshot instead of
  /// re-running the whole body. Diagnostic only.
  uint32_t ResumedRounds = 0;
  /// The function's CFG, built during the first round.
  ControlFlowGraph Cfg;
};

/// Runs the loop-carry fixpoint: each round steps the typing engine in body
/// order with the previous round's carry frozen, snapshotting the machine at
/// `loop` instructions; later rounds resume from the earliest loop whose
/// carry changed. Runs at least one round and at most MaxPasses. Rejects
/// exactly what evaluateFunction rejects.
Result<CarryFixpoint> runCarryFixpoint(const wasm::Module &M,
                                       uint32_t DefinedIndex,
                                       uint32_t MaxPasses);

/// Graphviz rendering (one digraph) for offline triage.
std::string cfgToDot(const wasm::Module &M, const ControlFlowGraph &Cfg);

/// JSON rendering: blocks (with rpo/idom/loop/dominates-exit facts), edges,
/// loop headers.
std::string cfgToJson(const ControlFlowGraph &Cfg);

} // namespace analysis
} // namespace snowwhite

#endif // SNOWWHITE_ANALYSIS_CFG_H

#include "analysis/cfg.h"

#include "wasm/typing.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>

namespace snowwhite {
namespace analysis {

using wasm::FuncType;
using wasm::Function;
using wasm::Instr;
using wasm::Module;
using wasm::Opcode;

const char *edgeKindName(EdgeKind Kind) {
  switch (Kind) {
  case EdgeKind::Fall:
    return "fall";
  case EdgeKind::BlockEntry:
    return "block";
  case EdgeKind::LoopEntry:
    return "loop";
  case EdgeKind::IfTrue:
    return "if-true";
  case EdgeKind::IfFalse:
    return "if-false";
  case EdgeKind::Br:
    return "br";
  case EdgeKind::BrIf:
    return "br-if";
  case EdgeKind::BrTable:
    return "br-table";
  case EdgeKind::Return:
    return "return";
  case EdgeKind::Unreachable:
    return "unreachable";
  }
  return "unknown";
}

bool ControlFlowGraph::dominates(uint32_t A, uint32_t B) const {
  if (A >= Blocks.size() || B >= Blocks.size())
    return false;
  if (Blocks[A].Rpo == NoBlock || Blocks[B].Rpo == NoBlock)
    return false;
  uint32_t Cur = B;
  while (true) {
    if (Cur == A)
      return true;
    uint32_t Up = Blocks[Cur].IDom;
    if (Up == NoBlock || Up == Cur)
      return false; // Reached the entry (its own idom) without meeting A.
    Cur = Up;
  }
}

namespace {

/// The opcodes that terminate or open basic blocks; everything else is
/// straight-line.
bool isControl(Opcode Op) {
  switch (Op) {
  case Opcode::Block:
  case Opcode::Loop:
  case Opcode::If:
  case Opcode::Else:
  case Opcode::End:
  case Opcode::Br:
  case Opcode::BrIf:
  case Opcode::BrTable:
  case Opcode::Return:
  case Opcode::Unreachable:
    return true;
  default:
    return false;
  }
}

/// Builds one function's CFG from a typing walk. The constructor partitions
/// the body; afterStep is called after every successful engine step and
/// reads the engine's frame stack, so the engine alone decides which frame a
/// control instruction opens, closes or targets; finish derives the graph
/// facts once the walk is complete.
class CfgBuilder {
public:
  CfgBuilder(const std::vector<Instr> &FuncBody, uint32_t DefinedIndex);
  void afterStep(const wasm::TypingEngine &E, size_t I);
  Result<ControlFlowGraph> finish();

private:
  size_t addEdge(uint32_t From, uint32_t To, EdgeKind Kind, bool Back = false) {
    Cfg.Edges.push_back(CfgEdge{From, To, Kind, Back});
    return Cfg.Edges.size() - 1;
  }
  /// An edge resolved when the frame at stack position Depth closes.
  void addPending(uint32_t From, size_t Depth, EdgeKind Kind) {
    Pending[Depth].push_back(addEdge(From, NoBlock, Kind));
  }
  /// Continuation into the instruction at Next. An edge into an `else`
  /// means a completed then-arm: it jumps past the else arm, so it joins the
  /// open if frame's pending edges and lands on the matching `end`.
  void addFallTo(const wasm::TypingEngine &E, uint32_t From, size_t Next,
                 EdgeKind Kind) {
    if (Next >= Body.size())
      return;
    if (Body[Next].Op == Opcode::Else)
      addPending(From, E.frames().size() - 1, Kind);
    else
      addEdge(From, BlockOf[Next], Kind);
  }
  /// A branch to relative Depth: loops are resolved immediately (the only
  /// backward edges); forward labels join at the target frame's `end`.
  void addBranchTo(const wasm::TypingEngine &E, uint32_t From, uint64_t Depth,
                   EdgeKind Kind) {
    size_t Target = E.frames().size() - 1 - static_cast<size_t>(Depth);
    const wasm::TypingEngine::Frame &F = E.frames()[Target];
    if (F.Kind == Opcode::Loop)
      addEdge(From, BlockOf[F.InstrIndex], Kind, /*Back=*/true);
    else
      addPending(From, Target, Kind);
  }

  const std::vector<Instr> &Body;
  ControlFlowGraph Cfg;
  std::vector<uint32_t> BlockOf;
  /// Unresolved edges per open frame, indexed by stack position. An `if`
  /// frame's first entry is its false edge.
  std::vector<std::vector<size_t>> Pending;
};

CfgBuilder::CfgBuilder(const std::vector<Instr> &FuncBody,
                       uint32_t DefinedIndex)
    : Body(FuncBody) {
  const size_t N = Body.size();
  Cfg.DefinedIndex = DefinedIndex;

  // --- Partition the body into blocks (every control instruction is its own
  // single-instruction block; straight-line runs coalesce). ---
  BlockOf.assign(N, NoBlock);
  {
    BasicBlock Entry;
    Entry.IsEntry = true;
    Cfg.Blocks.push_back(std::move(Entry));
  }
  for (size_t I = 0; I < N;) {
    BasicBlock B;
    B.Id = static_cast<uint32_t>(Cfg.Blocks.size());
    B.First = I;
    if (isControl(Body[I].Op)) {
      B.End = I + 1;
      B.IsLoopInstr = Body[I].Op == Opcode::Loop;
    } else {
      size_t J = I;
      while (J < N && !isControl(Body[J].Op))
        ++J;
      B.End = J;
    }
    for (size_t K = B.First; K < B.End; ++K)
      BlockOf[K] = B.Id;
    I = B.End;
    Cfg.Blocks.push_back(std::move(B));
  }
  {
    BasicBlock Exit;
    Exit.Id = static_cast<uint32_t>(Cfg.Blocks.size());
    Exit.IsExit = true;
    Exit.First = Exit.End = N;
    Cfg.Blocks.push_back(std::move(Exit));
  }
  addEdge(Cfg.entryId(), N > 0 ? BlockOf[0] : Cfg.exitId(), EdgeKind::Fall);
  Pending.resize(1); // The function frame, open before the first step.
}

void CfgBuilder::afterStep(const wasm::TypingEngine &E, size_t I) {
  const uint32_t BId = BlockOf[I];
  const Instr &Ins = Body[I];
  if (!isControl(Ins.Op)) {
    if (I + 1 == Cfg.Blocks[BId].End)
      addFallTo(E, BId, I + 1, EdgeKind::Fall);
    return;
  }
  // The engine accepted the step, so every depth below names an open frame.
  const size_t Top = E.frames().size() - 1;
  switch (Ins.Op) {
  case Opcode::Block:
  case Opcode::Loop:
  case Opcode::If:
    if (Pending.size() <= Top)
      Pending.resize(Top + 1);
    Pending[Top].clear();
    if (Ins.Op == Opcode::If)
      addPending(BId, Top, EdgeKind::IfFalse);
    addFallTo(E, BId, I + 1,
              Ins.Op == Opcode::Loop ? EdgeKind::LoopEntry
              : Ins.Op == Opcode::If ? EdgeKind::IfTrue
                                     : EdgeKind::BlockEntry);
    break;
  case Opcode::Else:
    Cfg.Edges[Pending[Top].front()].To = BId; // False path enters the arm.
    addFallTo(E, BId, I + 1, EdgeKind::Fall);
    break;
  case Opcode::End: {
    // The closed frame sat one above the new top. An if without else still
    // holds its false edge, which skips to this `end`.
    const size_t Closed = E.frames().size();
    for (size_t EIdx : Pending[Closed])
      if (Cfg.Edges[EIdx].To == NoBlock)
        Cfg.Edges[EIdx].To = BId;
    if (E.frames().empty())
      addEdge(BId, Cfg.exitId(), EdgeKind::Fall);
    else
      addFallTo(E, BId, I + 1, EdgeKind::Fall);
    break;
  }
  case Opcode::Br:
    addBranchTo(E, BId, Ins.Imm0, EdgeKind::Br);
    break;
  case Opcode::BrIf:
    addBranchTo(E, BId, Ins.Imm0, EdgeKind::BrIf);
    addFallTo(E, BId, I + 1, EdgeKind::Fall);
    break;
  case Opcode::BrTable: {
    // Deduplicate fan-out per target label (the engine records each table
    // entry, but its joins are idempotent, so one edge per distinct target
    // is equivalent — and keeps the graph readable).
    std::set<uint64_t> Seen;
    auto addTarget = [&](uint64_t Depth) {
      if (Seen.insert(Depth).second)
        addBranchTo(E, BId, Depth, EdgeKind::BrTable);
    };
    addTarget(Ins.Imm0);
    for (uint32_t Target : Ins.Table)
      addTarget(Target);
    break;
  }
  case Opcode::Return:
    addEdge(BId, Cfg.exitId(), EdgeKind::Return);
    break;
  case Opcode::Unreachable:
    addEdge(BId, Cfg.exitId(), EdgeKind::Unreachable);
    break;
  default:
    break; // Unreachable: isControl covers exactly the cases above.
  }
}

Result<ControlFlowGraph> CfgBuilder::finish() {
  const uint32_t ExitId = Cfg.exitId();
  // --- Succs/Preds. Every edge target is resolved by now: pending edges
  // belong to open frames, and all frames closed. ---
  for (size_t EIdx = 0; EIdx < Cfg.Edges.size(); ++EIdx) {
    const CfgEdge &E = Cfg.Edges[EIdx];
    if (E.To == NoBlock)
      return Error(ErrorCode::Malformed,
                   "analysis: cfg: unresolved edge"); // Defensive.
    Cfg.Blocks[E.From].Succs.push_back(static_cast<uint32_t>(EIdx));
    Cfg.Blocks[E.To].Preds.push_back(static_cast<uint32_t>(EIdx));
  }

  // --- Reachability + RPO. Body order is a reverse postorder: every
  // non-back edge goes forward in the body, so ranking reachable blocks by
  // position is a valid RPO for the dominator iteration below. ---
  {
    std::vector<bool> Seen(Cfg.Blocks.size(), false);
    std::vector<uint32_t> Work{Cfg.entryId()};
    Seen[Cfg.entryId()] = true;
    while (!Work.empty()) {
      uint32_t BId = Work.back();
      Work.pop_back();
      for (uint32_t EIdx : Cfg.Blocks[BId].Succs) {
        uint32_t To = Cfg.Edges[EIdx].To;
        if (!Seen[To]) {
          Seen[To] = true;
          Work.push_back(To);
        }
      }
    }
    for (uint32_t BId = 0; BId < Cfg.Blocks.size(); ++BId)
      if (Seen[BId]) {
        Cfg.Blocks[BId].Rpo = static_cast<uint32_t>(Cfg.Rpo.size());
        Cfg.Rpo.push_back(BId);
      }
  }

  // --- Dominators: iterative Cooper-Harvey-Kennedy over RPO. ---
  {
    auto Intersect = [this](uint32_t A, uint32_t B) {
      while (A != B) {
        while (Cfg.Blocks[A].Rpo > Cfg.Blocks[B].Rpo)
          A = Cfg.Blocks[A].IDom;
        while (Cfg.Blocks[B].Rpo > Cfg.Blocks[A].Rpo)
          B = Cfg.Blocks[B].IDom;
      }
      return A;
    };
    Cfg.Blocks[Cfg.entryId()].IDom = Cfg.entryId();
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (uint32_t BId : Cfg.Rpo) {
        if (BId == Cfg.entryId())
          continue;
        uint32_t NewIdom = NoBlock;
        for (uint32_t EIdx : Cfg.Blocks[BId].Preds) {
          uint32_t P = Cfg.Edges[EIdx].From;
          if (Cfg.Blocks[P].IDom == NoBlock)
            continue;
          NewIdom = NewIdom == NoBlock ? P : Intersect(P, NewIdom);
        }
        if (NewIdom != NoBlock && Cfg.Blocks[BId].IDom != NewIdom) {
          Cfg.Blocks[BId].IDom = NewIdom;
          Changed = true;
        }
      }
    }
  }

  // --- Natural loops from back edges (the target of a back edge dominates
  // its source in structured wasm — labels only name enclosing frames). ---
  {
    std::map<uint32_t, std::vector<uint32_t>> BackSources;
    for (const CfgEdge &E : Cfg.Edges)
      if (E.Back && Cfg.Blocks[E.From].Rpo != NoBlock &&
          Cfg.dominates(E.To, E.From))
        BackSources[E.To].push_back(E.From);
    for (const auto &[Header, Sources] : BackSources) {
      Cfg.Blocks[Header].IsLoopHeader = true;
      Cfg.LoopHeaders.push_back(Header);
      std::vector<bool> InLoop(Cfg.Blocks.size(), false);
      InLoop[Header] = true;
      std::vector<uint32_t> Work = Sources;
      while (!Work.empty()) {
        uint32_t BId = Work.back();
        Work.pop_back();
        if (InLoop[BId])
          continue;
        InLoop[BId] = true;
        for (uint32_t EIdx : Cfg.Blocks[BId].Preds) {
          uint32_t P = Cfg.Edges[EIdx].From;
          if (Cfg.Blocks[P].Rpo != NoBlock && !InLoop[P])
            Work.push_back(P);
        }
      }
      for (uint32_t BId = 0; BId < Cfg.Blocks.size(); ++BId)
        if (InLoop[BId]) {
          ++Cfg.Blocks[BId].LoopDepth;
          Cfg.MaxLoopDepth = std::max(Cfg.MaxLoopDepth,
                                      Cfg.Blocks[BId].LoopDepth);
        }
    }
    // The typing engine's frame cap already bounds loop nesting (a natural
    // loop needs an open `loop` frame), but keep the taxonomy-coded guard
    // explicit like every other untrusted-input limit.
    if (Cfg.MaxLoopDepth > wasm::MaxControlNesting)
      return Error(ErrorCode::LimitExceeded,
                   "analysis: loop nesting deeper than " +
                       std::to_string(wasm::MaxControlNesting));
  }

  // --- Dominates-exit: the idom chain of the synthetic exit is exactly the
  // set of blocks on every entry->exit path. ---
  if (Cfg.Blocks[ExitId].Rpo != NoBlock) {
    uint32_t Cur = ExitId;
    while (true) {
      Cfg.Blocks[Cur].DominatesExit = true;
      uint32_t Up = Cfg.Blocks[Cur].IDom;
      if (Up == NoBlock || Up == Cur)
        break;
      Cur = Up;
    }
  }

  return std::move(Cfg);
}

} // namespace

Result<ControlFlowGraph> buildCfg(const Module &M, uint32_t DefinedIndex) {
  if (DefinedIndex >= M.Functions.size())
    return Error(ErrorCode::Malformed,
                 "analysis: function index out of range");
  const Function &Func = M.Functions[DefinedIndex];
  if (Func.TypeIndex >= M.Types.size())
    return Error(ErrorCode::Malformed,
                 "analysis: function type index out of range");
  // A bare engine (no sink, no carry) types without tag bookkeeping, so its
  // verdict is evaluateFunction's at the cost of typing alone.
  wasm::TypingEngine E(M, Func, M.Types[Func.TypeIndex], "analysis: ");
  CfgBuilder Builder(Func.Body, DefinedIndex);
  E.prepare();
  for (size_t I = 0; I < Func.Body.size(); ++I) {
    if (Result<void> S = E.stepAt(I); S.isErr())
      return S.error();
    Builder.afterStep(E, I);
  }
  if (Result<void> S = E.finish(); S.isErr())
    return S.error();
  return Builder.finish();
}

std::vector<bool> mustExecuteMask(const ControlFlowGraph &Cfg,
                                  size_t BodySize) {
  std::vector<bool> Mask(BodySize, false);
  if (Cfg.Blocks.empty() || Cfg.Blocks.back().Rpo == NoBlock)
    return Mask; // Exit unreachable: never claim must-evidence.
  for (const BasicBlock &B : Cfg.Blocks)
    if (B.DominatesExit && !B.IsEntry && !B.IsExit)
      for (size_t I = B.First; I < B.End && I < BodySize; ++I)
        Mask[I] = true;
  return Mask;
}

Result<CarryFixpoint> runCarryFixpoint(const Module &M, uint32_t DefinedIndex,
                                       uint32_t MaxPasses) {
  if (DefinedIndex >= M.Functions.size())
    return Error(ErrorCode::Malformed,
                 "analysis: function index out of range");
  const Function &Func = M.Functions[DefinedIndex];
  if (Func.TypeIndex >= M.Types.size())
    return Error(ErrorCode::Malformed,
                 "analysis: function type index out of range");
  const FuncType &Type = M.Types[Func.TypeIndex];
  const std::vector<Instr> &Body = Func.Body;

  CarryFixpoint Fix;
  // Round 0 walks the whole body, so it also builds the CFG.
  CfgBuilder Builder(Body, DefinedIndex);
  // Machine snapshots at `loop` instructions, keyed by body index (== the
  // carry key). A snapshot taken in round r stays valid until some *earlier*
  // loop's carry changes — and that always triggers a resume at or before
  // it, overwriting it.
  std::map<size_t, wasm::TypingEngine::Snapshot> HeaderSnaps;
  size_t StartInstr = 0;
  while (true) {
    LoopCarry Out;
    EvalOptions Opts;
    Opts.LoopCarryIn = Fix.Rounds == 0 ? nullptr : &Fix.Carry;
    Opts.LoopCarryOut = &Out;
    wasm::TypingEngine E(M, Func, Type, "analysis: ", nullptr, Opts);
    if (StartInstr == 0) {
      E.prepare();
    } else {
      auto It = HeaderSnaps.find(StartInstr);
      if (It == HeaderSnaps.end())
        return Error(ErrorCode::Malformed,
                     "analysis: cfg fixpoint missing loop snapshot");
      E.restore(It->second);
      ++Fix.ResumedRounds;
    }
    // The prefix before StartInstr is unchanged since its last execution.
    for (size_t I = StartInstr; I < Body.size(); ++I) {
      if (Body[I].Op == Opcode::Loop)
        HeaderSnaps[I] = E.save();
      if (Result<void> S = E.stepAt(I); S.isErr())
        return S.error();
      if (Fix.Rounds == 0)
        Builder.afterStep(E, I);
    }
    if (Result<void> S = E.finish(); S.isErr())
      return S.error();
    if (Fix.Rounds == 0) {
      Result<ControlFlowGraph> Cfg = Builder.finish();
      if (Cfg.isErr())
        return Cfg.error();
      Fix.Cfg = Cfg.take();
    }
    ++Fix.Rounds;
    // Merge the round's carry contributions, tracking which loop headers
    // changed. Branches in the skipped prefix would have re-merged values
    // already present in the carry — the tag join is idempotent — so both
    // the carry and the changed set match a full re-run exactly.
    size_t Earliest = std::numeric_limits<size_t>::max();
    for (const auto &[LoopIndex, Tags] : Out) {
      auto [It, Inserted] = Fix.Carry.try_emplace(LoopIndex, Tags);
      bool HeaderChanged = Inserted;
      if (!Inserted && It->second.size() == Tags.size()) {
        for (size_t L = 0; L < Tags.size(); ++L) {
          ValueTag Merged = mergeTags(It->second[L], Tags[L]);
          if (!(Merged == It->second[L])) {
            It->second[L] = Merged;
            HeaderChanged = true;
          }
        }
      }
      if (HeaderChanged)
        Earliest = std::min(Earliest, LoopIndex);
    }
    if (Earliest == std::numeric_limits<size_t>::max() ||
        Fix.Rounds >= MaxPasses)
      break;
    StartInstr = Earliest;
  }
  return Fix;
}

std::string cfgToDot(const Module &M, const ControlFlowGraph &Cfg) {
  std::string Out = "digraph fn" + std::to_string(Cfg.DefinedIndex) + " {\n";
  Out += "  node [fontname=\"monospace\"];\n";
  const Function *Func = Cfg.DefinedIndex < M.Functions.size()
                             ? &M.Functions[Cfg.DefinedIndex]
                             : nullptr;
  for (const BasicBlock &B : Cfg.Blocks) {
    Out += "  b" + std::to_string(B.Id) + " [";
    if (B.IsEntry) {
      Out += "shape=circle,label=\"entry\"";
    } else if (B.IsExit) {
      Out += "shape=doublecircle,label=\"exit\"";
    } else {
      // Built with += (not one `+` chain): GCC 12's -Wrestrict misfires on
      // literal + to_string rvalue chains under -Werror.
      std::string Label = "B";
      Label += std::to_string(B.Id);
      Label += " [";
      Label += std::to_string(B.First);
      Label += ",";
      Label += std::to_string(B.End);
      Label += ")";
      if (Func) {
        size_t Shown = 0;
        for (size_t I = B.First; I < B.End && Shown < 3; ++I, ++Shown)
          Label += std::string("\\n") + opcodeName(Func->Body[I].Op);
        if (B.End - B.First > 3)
          Label += "\\n...";
      }
      Out += "shape=box,label=\"" + Label + "\"";
      if (B.IsLoopHeader)
        Out += ",peripheries=2";
      if (B.DominatesExit)
        Out += ",style=bold";
    }
    Out += "];\n";
  }
  for (const CfgEdge &E : Cfg.Edges) {
    Out += "  b" + std::to_string(E.From) + " -> b" + std::to_string(E.To) +
           " [label=\"" + edgeKindName(E.Kind) + "\"";
    if (E.Back)
      Out += ",style=dashed";
    Out += "];\n";
  }
  Out += "}\n";
  return Out;
}

std::string cfgToJson(const ControlFlowGraph &Cfg) {
  std::string Out =
      "{\"defined_index\":" + std::to_string(Cfg.DefinedIndex) +
      ",\"blocks\":[";
  for (const BasicBlock &B : Cfg.Blocks) {
    if (B.Id != 0)
      Out += ",";
    Out += "{\"id\":" + std::to_string(B.Id) + ",\"kind\":\"";
    Out += B.IsEntry ? "entry" : B.IsExit ? "exit" : "body";
    Out += "\",\"first\":" + std::to_string(B.First) +
           ",\"end\":" + std::to_string(B.End) + ",\"rpo\":";
    Out += B.Rpo == NoBlock ? "null" : std::to_string(B.Rpo);
    Out += ",\"idom\":";
    Out += B.IDom == NoBlock ? "null" : std::to_string(B.IDom);
    Out += ",\"loop_header\":";
    Out += B.IsLoopHeader ? "true" : "false";
    Out += ",\"loop_depth\":" + std::to_string(B.LoopDepth) +
           ",\"dominates_exit\":";
    Out += B.DominatesExit ? "true" : "false";
    Out += "}";
  }
  Out += "],\"edges\":[";
  bool FirstEdge = true;
  for (const CfgEdge &E : Cfg.Edges) {
    if (!FirstEdge)
      Out += ",";
    FirstEdge = false;
    Out += "{\"from\":" + std::to_string(E.From) +
           ",\"to\":" + std::to_string(E.To) + ",\"kind\":\"" +
           edgeKindName(E.Kind) + "\",\"back\":";
    Out += E.Back ? "true" : "false";
    Out += "}";
  }
  Out += "],\"loop_headers\":[";
  for (size_t Index = 0; Index < Cfg.LoopHeaders.size(); ++Index) {
    if (Index != 0)
      Out += ",";
    Out += std::to_string(Cfg.LoopHeaders[Index]);
  }
  Out += "],\"max_loop_depth\":" + std::to_string(Cfg.MaxLoopDepth) + "}";
  return Out;
}

} // namespace analysis
} // namespace snowwhite

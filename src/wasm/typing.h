//===- wasm/typing.h - The typed-stack typing engine ----------------------===//
//
// The one implementation of the WebAssembly 1.0 function-body typing
// algorithm (value stack + control frame stack, with stack-polymorphic
// typing below `unreachable`). It doubles as an abstract interpreter: next
// to the exact operand-stack *type* state, every stack slot carries a
// ValueTag describing where the value came from (parameter provenance and
// producing-instruction category).
//
// Three callers share the engine:
//
//  * wasm::validateFunction (validate.cpp): a bare typing pass;
//  * analysis::evaluateFunction (analysis/stack_eval.h): the same pass with
//    an EvalSink and loop-carry maps attached;
//  * the loop-carry fixpoint and the CFG builder (analysis/cfg.cpp): step
//    the body in order, snapshotting the machine at `loop` so later rounds
//    resume from the earliest loop whose carry state changed, and read the
//    frame stack (frames()) after each step to emit the CFG's edges. The
//    engine's walk is the only place that knows wasm's frame discipline.
//
// The callers differ only in their error prefix and in what they attach, so
// their verdicts and messages agree by construction. Tags are observable
// only through a sink or a loop-carry map; with neither attached the engine
// does no tag or join bookkeeping, and validation pays for typing alone.
//
// On top of the spec algorithm, when tags are tracked:
//
//  * flow-sensitive local tags: `local.set`/`local.tee` strongly update the
//    tag of the written local, `if`/`else`/`end` joins merge the tags of all
//    inbound edges, and loop back-edges are closed by a fixpoint whose
//    rounds merge the previous round's carry state at each loop entry
//    (analysis/cfg.h: runCarryFixpoint, bounded by the analyzer);
//  * an EvalSink observer fed with typed operands at loads, stores, calls,
//    numeric operations, branches-out (returns), and local writes — only at
//    reachable program points — from which evidence summaries are built
//    without materializing per-instruction state.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_WASM_TYPING_H
#define SNOWWHITE_WASM_TYPING_H

#include "support/result.h"
#include "wasm/module.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace snowwhite {
namespace wasm {

/// Control nesting cap. The reader already bounds body size by section
/// bytes, but a body of back-to-back `block` opcodes would still grow the
/// frame stack linearly with input size; cap it so hostile inputs get a
/// structured LimitExceeded instead of unbounded memory growth. The CFG
/// builder reads this engine's frames, so the cap bounds it too.
inline constexpr size_t MaxControlNesting = 1024;

/// Sentinel parameter index for "no parameter provenance".
inline constexpr uint32_t NoParam = 0xffffffffu;

/// Tag-tracking is disabled for bodies with more locals than this: each
/// control frame snapshots the local tag vector, so an adversarial body of
/// nested blocks over a huge local count would otherwise multiply the two
/// bounds into an allocation bomb. Evidence degrades to "no provenance"
/// instead (analysis::FunctionSummary::TagsTracked).
inline constexpr size_t MaxTrackedLocals = 512;

/// Category of the instruction that produced a value. Coarse on purpose:
/// this feeds return-value evidence ("the return is always a comparison
/// result"), not a full expression recovery.
enum class Origin : uint8_t {
  Unknown, ///< Merge of differing origins, or entry state.
  Const,   ///< *.const (and zero-initialized locals).
  Load,    ///< A memory load; width/signedness in OrgBytes/OrgSigned.
  Compare, ///< Comparison or eqz (always i32 0/1).
  Arith,   ///< Numeric arithmetic/bitwise instruction.
  Convert, ///< Conversion, extension, or reinterpretation.
  Call,    ///< Result of call/call_indirect.
  Global,  ///< global.get.
  MemQuery ///< memory.size / memory.grow.
};

/// Provenance of one abstract value: which parameter it traces to (if any)
/// and what produced it. `Direct` means the value *is* the parameter
/// (`local.get` of an untouched parameter local, possibly via copies);
/// otherwise a set Param means the value was computed *from* the parameter
/// (e.g. `p + i`, the address of a derived element access).
struct ValueTag {
  uint32_t Param = NoParam;
  bool Direct = false;
  Origin Org = Origin::Unknown;
  uint8_t OrgBytes = 0;  ///< Access width in bytes when Org == Load.
  bool OrgSigned = false; ///< Sign-extending load when Org == Load.

  bool operator==(const ValueTag &Other) const = default;
};

/// Lattice join of two tags: agreement is kept, any disagreement widens
/// toward "no information". Two references to the same parameter join to a
/// derived reference unless both are direct.
ValueTag mergeTags(const ValueTag &A, const ValueTag &B);

/// One operand-stack slot: the spec validator's type state (Known = false is
/// the stack-polymorphic "unknown" below an unreachable point) plus the
/// provenance tag.
struct AbstractValue {
  ValType Type = ValType::I32;
  bool Known = true;
  ValueTag Tag;
};

/// Observer over one evaluation walk. Semantic callbacks (loads, stores,
/// calls, returns, ...) fire only at *reachable* program points; onInstr
/// fires for every instruction and reports reachability. Stack and Args
/// references alias the engine's live state and must not be retained.
class EvalSink {
public:
  virtual ~EvalSink();

  /// Before executing instruction Index. Stack is the operand stack state at
  /// that point; Unreachable mirrors the spec validator's per-frame flag.
  virtual void onInstr(size_t Index, const Instr &I,
                       const std::vector<AbstractValue> &Stack,
                       bool Unreachable) {}
  /// A memory load of Bytes bytes at Addr. SignExtending is true for the
  /// *_s sub-width variants.
  virtual void onLoad(const Instr &I, const AbstractValue &Addr,
                      unsigned Bytes, bool SignExtending) {}
  /// A memory store of Value (Bytes bytes) through Addr.
  virtual void onStore(const Instr &I, const AbstractValue &Addr,
                       const AbstractValue &Value, unsigned Bytes) {}
  /// A one-operand numeric instruction (tests, conversions, extensions).
  virtual void onUnary(const Instr &I, const AbstractValue &Operand) {}
  /// A two-operand numeric instruction; Lhs/Rhs in source order.
  virtual void onBinary(const Instr &I, const AbstractValue &Lhs,
                        const AbstractValue &Rhs) {}
  /// An i32 value consumed as a condition (if, br_if, select).
  virtual void onCondition(const Instr &I, const AbstractValue &Condition) {}
  /// A call with its arguments in source order. TargetSpaceIndex is the
  /// function-space index for direct calls and unused when Indirect.
  virtual void onCall(const Instr &I, uint64_t TargetSpaceIndex,
                      bool Indirect, const std::vector<AbstractValue> &Args) {}
  /// local.set / local.tee writing Value into LocalIndex.
  virtual void onLocalWrite(uint32_t LocalIndex, const AbstractValue &Value) {}
  /// One function-result value leaving the function: explicit `return`,
  /// `br`-family branches targeting the function frame, and the implicit
  /// fall-through at the final `end`.
  virtual void onReturn(const AbstractValue &Value) {}
};

/// Per-loop local-tag state carried over back edges, keyed by the `loop`
/// instruction's body index. Produced by one evaluation pass, consumed by
/// the next (analysis/analyzer.h drives this to a bounded fixpoint).
using LoopCarry = std::map<size_t, std::vector<ValueTag>>;

struct EvalOptions {
  /// Back-edge state from the previous pass, merged into the local tags at
  /// each loop entry. Null on the first pass.
  const LoopCarry *LoopCarryIn = nullptr;
  /// When set, receives the local tags observed at every branch to a loop
  /// header during this pass.
  LoopCarry *LoopCarryOut = nullptr;
};

/// The typed-stack machine for one function body: prepare() once (or
/// restore() from a Snapshot), stepAt() each instruction in body order,
/// finish() at the end. Errors are prefixed with Prefix ("validation: ",
/// "analysis: "), which must outlive the engine.
class TypingEngine {
public:
  /// One control frame (function body, block, loop, if, else). Public so
  /// Snapshot can carry the frame stack across fixpoint rounds.
  struct Frame {
    Opcode Kind = Opcode::Block;
    std::vector<ValType> Results;
    size_t StackHeight = 0;
    bool Unreachable = false;
    size_t InstrIndex = 0; ///< Body index of the opening instruction.
    std::vector<ValueTag> EntryLocals; ///< Local tags at frame entry.
    bool HasOutLocals = false;
    std::vector<ValueTag> OutLocals; ///< Join over edges to the end label.
    bool HasResultTags = false;
    std::vector<ValueTag> ResultTags; ///< Join of result tags over edges.
  };

  /// Complete machine state at an instruction boundary. Restoring a snapshot
  /// into a fresh engine (with possibly different EvalOptions carry maps)
  /// resumes execution exactly where save() was called.
  struct Snapshot {
    std::vector<AbstractValue> Stack;
    std::vector<ValueTag> LocalTags;
    std::vector<Frame> Frames;
  };

  TypingEngine(const Module &Mod, const Function &F, const FuncType &FT,
               const char *ErrorPrefix, EvalSink *S = nullptr,
               const EvalOptions &Opts = {})
      : M(Mod), Func(F), Type(FT), Prefix(ErrorPrefix), Sink(S),
        Options(Opts) {}

  /// prepare + step every instruction + finish.
  Result<void> run();

  /// Initializes local types/tags and pushes the function frame.
  void prepare();

  /// Executes the instruction at body index Index.
  Result<void> stepAt(size_t Index);

  /// Final check after the last instruction: every frame must be closed.
  Result<void> finish();

  Snapshot save() const;
  void restore(const Snapshot &S);

  /// The open control frames, outermost (the function frame) first. After a
  /// successful step it shows what the instruction opened, closed or
  /// targeted; the CFG builder reads it instead of tracking frames itself.
  const std::vector<Frame> &frames() const { return Frames; }

private:
  /// Record the rejection in Failure and return false, so checks read
  /// `return fail(...)`.
  bool fail(const std::string &Message) {
    Failure = Error(ErrorCode::Malformed, Prefix + Message);
    return false;
  }
  bool failLimit(const std::string &Message) {
    Failure = Error(ErrorCode::LimitExceeded, Prefix + Message);
    return false;
  }

  /// Initializes LocalTypes and the tracking switches (deterministic;
  /// shared by prepare and restore).
  void initLocals();

  bool reachable() const { return !Frames.back().Unreachable; }
  void pushFrame(Opcode Kind, std::vector<ValType> Results, size_t InstrIndex);
  void pushValue(ValType T, ValueTag Tag = {});
  void pushUnknown();
  bool popExpect(ValType T, AbstractValue &Out);
  std::optional<AbstractValue> popAny();
  bool popSequence(const std::vector<ValType> &Types);
  const std::vector<ValType> *labelTypes(uint64_t Depth) const;
  void markUnreachable();
  void mergeLocalsInto(bool &Has, std::vector<ValueTag> &Into,
                       const std::vector<ValueTag> &From);
  void joinResultTags(Frame &Target);
  void recordBranch(uint64_t Depth);
  bool checkAlignment(const Instr &I, unsigned Bytes);
  bool checkLoad(const Instr &I, ValType Pushed);
  bool checkStore(const Instr &I, ValType Stored);
  bool checkUnary(const Instr &I, ValType In, ValType Out, Origin Org);
  bool checkBinary(const Instr &I, ValType In, ValType Out,
                           Origin Org);
  bool step(const Instr &I, size_t Index);

  const Module &M;
  const Function &Func;
  const FuncType &Type;
  const char *Prefix;
  EvalSink *Sink;
  const EvalOptions Options; // Two pointers; a copy cannot dangle.
  /// A sink or a loop-carry map is attached, so value tags are observable
  /// and result-tag joins are kept.
  bool Observed = false;
  /// Observed, and the body has at most MaxTrackedLocals locals: local tags
  /// are tracked and joined at control edges.
  bool TrackTags = false;
  std::vector<ValType> LocalTypes;
  std::vector<ValueTag> LocalTags;
  std::vector<AbstractValue> Stack;
  std::vector<Frame> Frames;
  /// Values taken by the last popSequence, in source order. Reused so the
  /// per-branch and per-call pops allocate nothing once warm.
  std::vector<AbstractValue> Popped;
  /// The rejection reported by the last failing step.
  std::optional<Error> Failure;
};

/// Types defined function DefinedIndex with one engine run: the body of
/// both wasm::validateFunction and analysis::evaluateFunction.
Result<void> typeFunction(const Module &M, uint32_t DefinedIndex,
                          const char *ErrorPrefix, EvalSink *Sink = nullptr,
                          const EvalOptions &Options = {});

} // namespace wasm
} // namespace snowwhite

#endif // SNOWWHITE_WASM_TYPING_H

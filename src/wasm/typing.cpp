#include "wasm/typing.h"

#include <string>

namespace snowwhite {
namespace wasm {

EvalSink::~EvalSink() = default;

ValueTag mergeTags(const ValueTag &A, const ValueTag &B) {
  ValueTag Out;
  if (A.Param == B.Param) {
    Out.Param = A.Param;
    Out.Direct = A.Direct && B.Direct;
  }
  if (A.Org == B.Org) {
    Out.Org = A.Org;
    Out.OrgBytes = A.OrgBytes == B.OrgBytes ? A.OrgBytes : 0;
    Out.OrgSigned = A.OrgSigned && B.OrgSigned;
  }
  return Out;
}

namespace {

/// Derived-value tag: the result of a numeric instruction traces to a
/// parameter iff exactly one parameter flows in (or both operands trace to
/// the same one). Direct-ness never survives computation.
ValueTag derivedTag(Origin Org, const ValueTag &A, const ValueTag &B) {
  ValueTag Out;
  Out.Org = Org;
  if (A.Param != NoParam && (B.Param == NoParam || B.Param == A.Param))
    Out.Param = A.Param;
  else if (B.Param != NoParam && A.Param == NoParam)
    Out.Param = B.Param;
  return Out;
}

ValueTag derivedTag(Origin Org, const ValueTag &A) {
  ValueTag Out;
  Out.Org = Org;
  Out.Param = A.Param;
  return Out;
}

/// Width of a memory access and whether a load sign-extends.
struct AccessShape {
  unsigned Bytes;
  bool SignExtending;
};

AccessShape accessShape(Opcode Op) {
  switch (Op) {
  case Opcode::I32Load8S:
  case Opcode::I64Load8S:
    return {1, true};
  case Opcode::I32Load8U:
  case Opcode::I64Load8U:
  case Opcode::I32Store8:
  case Opcode::I64Store8:
    return {1, false};
  case Opcode::I32Load16S:
  case Opcode::I64Load16S:
    return {2, true};
  case Opcode::I32Load16U:
  case Opcode::I64Load16U:
  case Opcode::I32Store16:
  case Opcode::I64Store16:
    return {2, false};
  case Opcode::I64Load32S:
    return {4, true};
  case Opcode::I64Load:
  case Opcode::F64Load:
  case Opcode::I64Store:
  case Opcode::F64Store:
    return {8, false};
  default: // i32/f32 loads and stores, i64.load32_u, i64.store32
    return {4, false};
  }
}

} // namespace

void TypingEngine::initLocals() {
  LocalTypes = Type.Params;
  for (ValType Local : Func.flattenedLocals())
    LocalTypes.push_back(Local);
  Observed = Sink || Options.LoopCarryIn || Options.LoopCarryOut;
  TrackTags = Observed && LocalTypes.size() <= MaxTrackedLocals;
}

void TypingEngine::prepare() {
  initLocals();
  if (TrackTags) {
    LocalTags.assign(LocalTypes.size(), {});
    for (uint32_t Index = 0; Index < Type.Params.size(); ++Index) {
      LocalTags[Index].Param = Index;
      LocalTags[Index].Direct = true;
    }
    // Non-parameter locals are zero-initialized by the spec.
    for (size_t Index = Type.Params.size(); Index < LocalTags.size(); ++Index)
      LocalTags[Index].Org = Origin::Const;
  }
  pushFrame(Opcode::Block, Type.Results, /*InstrIndex=*/0);
}

Result<void> TypingEngine::stepAt(size_t Index) {
  if (!step(Func.Body[Index], Index))
    return *Failure;
  return {};
}

Result<void> TypingEngine::finish() {
  if (!Frames.empty()) {
    fail("function body missing end instruction(s)");
    return *Failure;
  }
  return {};
}

Result<void> TypingEngine::run() {
  prepare();
  for (size_t Index = 0; Index < Func.Body.size(); ++Index)
    if (!step(Func.Body[Index], Index))
      return *Failure;
  return finish();
}

TypingEngine::Snapshot TypingEngine::save() const {
  return Snapshot{Stack, LocalTags, Frames};
}

void TypingEngine::restore(const Snapshot &S) {
  initLocals();
  Stack = S.Stack;
  LocalTags = S.LocalTags;
  Frames = S.Frames;
}

void TypingEngine::pushFrame(Opcode Kind, std::vector<ValType> Results,
                             size_t InstrIndex) {
  Frame &F = Frames.emplace_back();
  F.Kind = Kind;
  F.Results = std::move(Results);
  F.StackHeight = Stack.size();
  F.InstrIndex = InstrIndex;
  if (TrackTags)
    F.EntryLocals = LocalTags;
}

void TypingEngine::pushValue(ValType T, ValueTag Tag) {
  Stack.push_back(AbstractValue{T, true, Tag});
}

void TypingEngine::pushUnknown() {
  Stack.push_back(AbstractValue{ValType::I32, false, {}});
}

/// Pops a value expecting type T; unknown values match anything. Fills Out
/// with the popped value (a polymorphic placeholder when popping below an
/// unreachable frame base, which is only legal in unreachable code).
bool TypingEngine::popExpect(ValType T, AbstractValue &Out) {
  Frame &F = Frames.back();
  if (Stack.size() == F.StackHeight) {
    Out = AbstractValue{T, false, {}};
    return F.Unreachable;
  }
  Out = Stack.back();
  Stack.pop_back();
  return !Out.Known || Out.Type == T;
}

/// Pops any value; nullopt only when the stack is empty at a reachable
/// frame base.
std::optional<AbstractValue> TypingEngine::popAny() {
  Frame &F = Frames.back();
  if (Stack.size() == F.StackHeight) {
    if (F.Unreachable)
      return AbstractValue{ValType::I32, false, {}};
    return std::nullopt;
  }
  AbstractValue Out = Stack.back();
  Stack.pop_back();
  return Out;
}

/// Types a branch to relative Depth: loop labels take no values (MVP has no
/// loop parameters), others take the frame's result types. Null when Depth
/// is out of range.
const std::vector<ValType> *TypingEngine::labelTypes(uint64_t Depth) const {
  static const std::vector<ValType> LoopLabel;
  if (Depth >= Frames.size())
    return nullptr;
  const Frame &F = Frames[Frames.size() - 1 - static_cast<size_t>(Depth)];
  return F.Kind == Opcode::Loop ? &LoopLabel : &F.Results;
}

void TypingEngine::markUnreachable() {
  Frame &F = Frames.back();
  Stack.resize(F.StackHeight);
  F.Unreachable = true;
}

void TypingEngine::mergeLocalsInto(bool &Has, std::vector<ValueTag> &Into,
                                   const std::vector<ValueTag> &From) {
  if (!Has) {
    Into = From;
    Has = true;
    return;
  }
  for (size_t Index = 0; Index < Into.size(); ++Index)
    Into[Index] = mergeTags(Into[Index], From[Index]);
}

/// Joins the tags of the values just popped (Popped) into Target's
/// result-tag accumulator: one inbound edge of its end label.
void TypingEngine::joinResultTags(Frame &Target) {
  if (!Observed)
    return;
  if (!Target.HasResultTags) {
    Target.ResultTags.clear();
    for (const AbstractValue &Value : Popped)
      Target.ResultTags.push_back(Value.Tag);
    Target.HasResultTags = true;
    return;
  }
  for (size_t Index = 0; Index < Target.ResultTags.size(); ++Index)
    Target.ResultTags[Index] =
        mergeTags(Target.ResultTags[Index], Popped[Index].Tag);
}

/// Records a reachable branch to relative Depth carrying the operands in
/// Popped: operands leaving through the function frame are return values,
/// loop headers feed the next fixpoint pass's carry state, and forward
/// labels feed the result and local joins at their `end`.
void TypingEngine::recordBranch(uint64_t Depth) {
  if (!Observed || !reachable())
    return;
  Frame &Target = Frames[Frames.size() - 1 - static_cast<size_t>(Depth)];
  if (Sink && static_cast<size_t>(Depth) + 1 == Frames.size())
    for (const AbstractValue &Value : Popped)
      Sink->onReturn(Value);
  if (Target.Kind != Opcode::Loop)
    joinResultTags(Target);
  if (!TrackTags)
    return;
  if (Target.Kind != Opcode::Loop) {
    mergeLocalsInto(Target.HasOutLocals, Target.OutLocals, LocalTags);
  } else if (Options.LoopCarryOut) {
    auto [It, Inserted] =
        Options.LoopCarryOut->try_emplace(Target.InstrIndex, LocalTags);
    if (!Inserted)
      for (size_t Index = 0; Index < It->second.size(); ++Index)
        It->second[Index] = mergeTags(It->second[Index], LocalTags[Index]);
  }
}

/// Pops the value sequence Types (in reverse) into Popped, in source
/// order. False on a type mismatch.
bool TypingEngine::popSequence(const std::vector<ValType> &Types) {
  Popped.resize(Types.size());
  for (size_t Index = Types.size(); Index-- > 0;)
    if (!popExpect(Types[Index], Popped[Index]))
      return false;
  return true;
}

/// Memarg alignment rule: the alignment exponent must not exceed
/// log2(natural access width). Found by the analysis-subsystem audit:
/// previously unchecked.
bool TypingEngine::checkAlignment(const Instr &I, unsigned Bytes) {
  unsigned MaxExp = 0;
  for (; Bytes > 1; Bytes >>= 1)
    ++MaxExp;
  if (I.Imm1 > MaxExp)
    return fail("alignment exceeds natural alignment");
  return true;
}

bool TypingEngine::checkLoad(const Instr &I, ValType Pushed) {
  if (M.Memories.empty())
    return fail("memory access without memory");
  AccessShape Shape = accessShape(I.Op);
  if (!checkAlignment(I, Shape.Bytes))
    return false;
  AbstractValue Addr;
  if (!popExpect(ValType::I32, Addr))
    return fail("load address must be i32");
  if (Sink && reachable())
    Sink->onLoad(I, Addr, Shape.Bytes, Shape.SignExtending);
  ValueTag Tag;
  Tag.Org = Origin::Load;
  Tag.OrgBytes = static_cast<uint8_t>(Shape.Bytes);
  Tag.OrgSigned = Shape.SignExtending;
  pushValue(Pushed, Tag);
  return true;
}

bool TypingEngine::checkStore(const Instr &I, ValType Stored) {
  if (M.Memories.empty())
    return fail("memory access without memory");
  unsigned Bytes = accessShape(I.Op).Bytes;
  if (!checkAlignment(I, Bytes))
    return false;
  AbstractValue Value, Addr;
  if (!popExpect(Stored, Value))
    return fail("store value type mismatch");
  if (!popExpect(ValType::I32, Addr))
    return fail("store address must be i32");
  if (Sink && reachable())
    Sink->onStore(I, Addr, Value, Bytes);
  return true;
}

bool TypingEngine::checkUnary(const Instr &I, ValType In, ValType Out,
                              Origin Org) {
  AbstractValue Operand;
  if (!popExpect(In, Operand))
    return fail("unary operand type mismatch");
  if (Sink && reachable())
    Sink->onUnary(I, Operand);
  pushValue(Out, derivedTag(Org, Operand.Tag));
  return true;
}

bool TypingEngine::checkBinary(const Instr &I, ValType In, ValType Out,
                               Origin Org) {
  AbstractValue Rhs, Lhs;
  if (!popExpect(In, Rhs) || !popExpect(In, Lhs))
    return fail("binary operand type mismatch");
  if (Sink && reachable())
    Sink->onBinary(I, Lhs, Rhs);
  pushValue(Out, derivedTag(Org, Lhs.Tag, Rhs.Tag));
  return true;
}

bool TypingEngine::step(const Instr &I, size_t Index) {
  // The final `end` pops the implicit function frame; nothing may follow it.
  // Every helper below indexes Frames.back(), so this guard is load-bearing.
  if (Frames.empty())
    return fail("instruction after function body end");

  if (Sink)
    Sink->onInstr(Index, I, Stack, Frames.back().Unreachable);

  uint8_t Byte = opcodeByte(I.Op);

  // Numeric instruction groups by opcode byte range.
  if (Byte == 0x45) // i32.eqz
    return checkUnary(I, ValType::I32, ValType::I32, Origin::Compare);
  if (Byte >= 0x46 && Byte <= 0x4f)
    return checkBinary(I, ValType::I32, ValType::I32, Origin::Compare);
  if (Byte == 0x50) // i64.eqz
    return checkUnary(I, ValType::I64, ValType::I32, Origin::Compare);
  if (Byte >= 0x51 && Byte <= 0x5a)
    return checkBinary(I, ValType::I64, ValType::I32, Origin::Compare);
  if (Byte >= 0x5b && Byte <= 0x60)
    return checkBinary(I, ValType::F32, ValType::I32, Origin::Compare);
  if (Byte >= 0x61 && Byte <= 0x66)
    return checkBinary(I, ValType::F64, ValType::I32, Origin::Compare);
  if (Byte >= 0x67 && Byte <= 0x69)
    return checkUnary(I, ValType::I32, ValType::I32, Origin::Arith);
  if (Byte >= 0x6a && Byte <= 0x78)
    return checkBinary(I, ValType::I32, ValType::I32, Origin::Arith);
  if (Byte >= 0x79 && Byte <= 0x7b)
    return checkUnary(I, ValType::I64, ValType::I64, Origin::Arith);
  if (Byte >= 0x7c && Byte <= 0x8a)
    return checkBinary(I, ValType::I64, ValType::I64, Origin::Arith);
  if (Byte >= 0x8b && Byte <= 0x91)
    return checkUnary(I, ValType::F32, ValType::F32, Origin::Arith);
  if (Byte >= 0x92 && Byte <= 0x98)
    return checkBinary(I, ValType::F32, ValType::F32, Origin::Arith);
  if (Byte >= 0x99 && Byte <= 0x9f)
    return checkUnary(I, ValType::F64, ValType::F64, Origin::Arith);
  if (Byte >= 0xa0 && Byte <= 0xa6)
    return checkBinary(I, ValType::F64, ValType::F64, Origin::Arith);

  switch (I.Op) {
  case Opcode::Unreachable:
    markUnreachable();
    return true;
  case Opcode::Nop:
    return true;

  case Opcode::Block:
  case Opcode::Loop: {
    if (Frames.size() >= MaxControlNesting)
      return failLimit("control nesting deeper than " +
                       std::to_string(MaxControlNesting));
    BlockType BT = I.blockType();
    std::vector<ValType> Results;
    if (BT.HasResult)
      Results.push_back(BT.Result);
    pushFrame(I.Op, std::move(Results), Index);
    if (I.Op == Opcode::Loop && TrackTags && Options.LoopCarryIn) {
      auto It = Options.LoopCarryIn->find(Index);
      if (It != Options.LoopCarryIn->end() &&
          It->second.size() == LocalTags.size())
        for (size_t L = 0; L < LocalTags.size(); ++L)
          LocalTags[L] = mergeTags(LocalTags[L], It->second[L]);
    }
    return true;
  }
  case Opcode::If: {
    if (Frames.size() >= MaxControlNesting)
      return failLimit("control nesting deeper than " +
                       std::to_string(MaxControlNesting));
    AbstractValue Cond;
    if (!popExpect(ValType::I32, Cond))
      return fail("if condition must be i32");
    if (Sink && reachable())
      Sink->onCondition(I, Cond);
    BlockType BT = I.blockType();
    std::vector<ValType> Results;
    if (BT.HasResult)
      Results.push_back(BT.Result);
    pushFrame(Opcode::If, std::move(Results), Index);
    return true;
  }
  case Opcode::Else: {
    Frame &F = Frames.back();
    if (F.Kind != Opcode::If)
      return fail("else without if");
    if (!popSequence(F.Results))
      return fail("then-branch result mismatch");
    if (Stack.size() != F.StackHeight && !F.Unreachable)
      return fail("then-branch leaves extra values");
    // The then-branch's fall-through edge joins the if's end label. Branches
    // inside the then-arm that targeted that label already joined into the
    // frame's accumulators, and the else frame keeps them. (Dropping them
    // narrowed the join at `end` — a real bug surfaced by the CFG worklist
    // audit; see ElseDropsThenBranchJoin* regressions.)
    if (!F.Unreachable) {
      if (TrackTags)
        mergeLocalsInto(F.HasOutLocals, F.OutLocals, LocalTags);
      joinResultTags(F);
    }
    F.Kind = Opcode::Else;
    F.Unreachable = false;
    Stack.resize(F.StackHeight);
    // The else-branch starts from the state at the `if`, not from wherever
    // the then-branch left the locals.
    if (TrackTags)
      LocalTags = F.EntryLocals;
    return true;
  }
  case Opcode::End: {
    Frame &F = Frames.back();
    if (F.Kind == Opcode::If && !F.Results.empty())
      return fail("if with result requires else");
    if (!popSequence(F.Results))
      return fail("block result mismatch at end");
    if (Stack.size() != F.StackHeight && !F.Unreachable)
      return fail("extra values on stack at end");
    bool FallThrough = !F.Unreachable;
    bool IsFunctionFrame = Frames.size() == 1;
    if (FallThrough && TrackTags)
      mergeLocalsInto(F.HasOutLocals, F.OutLocals, LocalTags);
    if (F.Kind == Opcode::If && TrackTags)
      // An `if` without `else`: the false path skips the block entirely.
      mergeLocalsInto(F.HasOutLocals, F.OutLocals, F.EntryLocals);
    if (FallThrough)
      joinResultTags(F);
    if (IsFunctionFrame && FallThrough && Sink)
      for (const AbstractValue &Value : Popped)
        Sink->onReturn(Value);
    Stack.resize(F.StackHeight);
    if (TrackTags && !IsFunctionFrame)
      LocalTags = std::move(F.HasOutLocals ? F.OutLocals : F.EntryLocals);
    for (size_t R = 0; R < F.Results.size(); ++R)
      pushValue(F.Results[R],
                F.HasResultTags && R < F.ResultTags.size() ? F.ResultTags[R]
                                                           : ValueTag{});
    Frames.pop_back();
    return true;
  }
  case Opcode::Br: {
    const std::vector<ValType> *Types = labelTypes(I.Imm0);
    if (!Types)
      return fail("br depth out of range");
    if (!popSequence(*Types))
      return fail("br operand mismatch");
    recordBranch(I.Imm0);
    markUnreachable();
    return true;
  }
  case Opcode::BrIf: {
    AbstractValue Cond;
    if (!popExpect(ValType::I32, Cond))
      return fail("br_if condition must be i32");
    if (Sink && reachable())
      Sink->onCondition(I, Cond);
    const std::vector<ValType> *Types = labelTypes(I.Imm0);
    if (!Types)
      return fail("br_if depth out of range");
    if (!popSequence(*Types))
      return fail("br_if operand mismatch");
    recordBranch(I.Imm0);
    // Fall-through keeps the operands, re-pushed as *known* values of the
    // label types (refining polymorphic slots).
    for (size_t R = 0; R < Types->size(); ++R)
      pushValue((*Types)[R], Popped[R].Tag);
    return true;
  }
  case Opcode::BrTable: {
    AbstractValue Selector;
    if (!popExpect(ValType::I32, Selector))
      return fail("br_table index must be i32");
    const std::vector<ValType> *DefaultTypes = labelTypes(I.Imm0);
    if (!DefaultTypes)
      return fail("br_table default depth out of range");
    for (uint32_t Target : I.Table) {
      const std::vector<ValType> *Types = labelTypes(Target);
      if (!Types || *Types != *DefaultTypes)
        return fail("br_table target arity mismatch");
    }
    if (!popSequence(*DefaultTypes))
      return fail("br_table operand mismatch");
    recordBranch(I.Imm0);
    for (uint32_t Target : I.Table)
      recordBranch(Target);
    markUnreachable();
    return true;
  }
  case Opcode::Return: {
    if (!popSequence(Type.Results))
      return fail("return value mismatch");
    if (Sink && reachable())
      for (const AbstractValue &Value : Popped)
        Sink->onReturn(Value);
    markUnreachable();
    return true;
  }
  case Opcode::Call: {
    uint64_t SpaceIndex = I.Imm0;
    uint32_t TypeIndex;
    if (SpaceIndex < M.Imports.size()) {
      TypeIndex = M.Imports[static_cast<size_t>(SpaceIndex)].TypeIndex;
    } else {
      uint64_t Defined = SpaceIndex - M.Imports.size();
      if (Defined >= M.Functions.size())
        return fail("call index out of range");
      TypeIndex = M.Functions[static_cast<size_t>(Defined)].TypeIndex;
    }
    if (TypeIndex >= M.Types.size())
      return fail("call type index out of range");
    const FuncType &Callee = M.Types[TypeIndex];
    if (!popSequence(Callee.Params))
      return fail("call argument mismatch");
    if (Sink && reachable())
      Sink->onCall(I, SpaceIndex, /*Indirect=*/false, Popped);
    ValueTag Tag;
    Tag.Org = Origin::Call;
    for (ValType ResultType : Callee.Results)
      pushValue(ResultType, Tag);
    return true;
  }
  case Opcode::CallIndirect: {
    if (I.Imm0 >= M.Types.size())
      return fail("call_indirect type index out of range");
    AbstractValue TableIndex;
    if (!popExpect(ValType::I32, TableIndex))
      return fail("call_indirect table index must be i32");
    const FuncType &Callee = M.Types[static_cast<size_t>(I.Imm0)];
    if (!popSequence(Callee.Params))
      return fail("call_indirect argument mismatch");
    if (Sink && reachable())
      Sink->onCall(I, 0, /*Indirect=*/true, Popped);
    ValueTag Tag;
    Tag.Org = Origin::Call;
    for (ValType ResultType : Callee.Results)
      pushValue(ResultType, Tag);
    return true;
  }

  case Opcode::Drop:
    if (!popAny())
      return fail("drop on empty stack");
    return true;
  case Opcode::Select: {
    AbstractValue Cond;
    if (!popExpect(ValType::I32, Cond))
      return fail("select condition must be i32");
    if (Sink && reachable())
      Sink->onCondition(I, Cond);
    std::optional<AbstractValue> B = popAny();
    std::optional<AbstractValue> A = popAny();
    if (!A || !B)
      return fail("select on empty stack");
    if (A->Known && B->Known && A->Type != B->Type)
      return fail("select operand types differ");
    ValueTag Tag = mergeTags(A->Tag, B->Tag);
    if (A->Known)
      pushValue(A->Type, Tag);
    else if (B->Known)
      pushValue(B->Type, Tag);
    else
      pushUnknown();
    return true;
  }

  case Opcode::LocalGet:
    if (I.Imm0 >= LocalTypes.size())
      return fail("local.get index out of range");
    pushValue(LocalTypes[static_cast<size_t>(I.Imm0)],
              TrackTags ? LocalTags[static_cast<size_t>(I.Imm0)]
                        : ValueTag{});
    return true;
  case Opcode::LocalSet: {
    if (I.Imm0 >= LocalTypes.size())
      return fail("local.set index out of range");
    AbstractValue Value;
    if (!popExpect(LocalTypes[static_cast<size_t>(I.Imm0)], Value))
      return fail("local.set type mismatch");
    if (Sink && reachable())
      Sink->onLocalWrite(static_cast<uint32_t>(I.Imm0), Value);
    if (TrackTags && reachable())
      LocalTags[static_cast<size_t>(I.Imm0)] = Value.Tag;
    return true;
  }
  case Opcode::LocalTee: {
    if (I.Imm0 >= LocalTypes.size())
      return fail("local.tee index out of range");
    ValType T = LocalTypes[static_cast<size_t>(I.Imm0)];
    AbstractValue Value;
    if (!popExpect(T, Value))
      return fail("local.tee type mismatch");
    if (Sink && reachable())
      Sink->onLocalWrite(static_cast<uint32_t>(I.Imm0), Value);
    if (TrackTags && reachable())
      LocalTags[static_cast<size_t>(I.Imm0)] = Value.Tag;
    pushValue(T, Value.Tag);
    return true;
  }
  case Opcode::GlobalGet: {
    if (I.Imm0 >= M.Globals.size())
      return fail("global.get index out of range");
    ValueTag Tag;
    Tag.Org = Origin::Global;
    pushValue(M.Globals[static_cast<size_t>(I.Imm0)].Type, Tag);
    return true;
  }
  case Opcode::GlobalSet: {
    if (I.Imm0 >= M.Globals.size())
      return fail("global.set index out of range");
    const wasm::GlobalDecl &Global = M.Globals[static_cast<size_t>(I.Imm0)];
    if (!Global.Mutable)
      return fail("global.set of immutable global");
    AbstractValue Value;
    if (!popExpect(Global.Type, Value))
      return fail("global.set type mismatch");
    return true;
  }

  case Opcode::I32Load:
  case Opcode::I32Load8S:
  case Opcode::I32Load8U:
  case Opcode::I32Load16S:
  case Opcode::I32Load16U:
    return checkLoad(I, ValType::I32);
  case Opcode::I64Load:
  case Opcode::I64Load8S:
  case Opcode::I64Load8U:
  case Opcode::I64Load16S:
  case Opcode::I64Load16U:
  case Opcode::I64Load32S:
  case Opcode::I64Load32U:
    return checkLoad(I, ValType::I64);
  case Opcode::F32Load:
    return checkLoad(I, ValType::F32);
  case Opcode::F64Load:
    return checkLoad(I, ValType::F64);

  case Opcode::I32Store:
  case Opcode::I32Store8:
  case Opcode::I32Store16:
    return checkStore(I, ValType::I32);
  case Opcode::I64Store:
  case Opcode::I64Store8:
  case Opcode::I64Store16:
  case Opcode::I64Store32:
    return checkStore(I, ValType::I64);
  case Opcode::F32Store:
    return checkStore(I, ValType::F32);
  case Opcode::F64Store:
    return checkStore(I, ValType::F64);

  case Opcode::MemorySize: {
    if (M.Memories.empty())
      return fail("memory.size without memory");
    ValueTag Tag;
    Tag.Org = Origin::MemQuery;
    pushValue(ValType::I32, Tag);
    return true;
  }
  case Opcode::MemoryGrow:
    if (M.Memories.empty())
      return fail("memory.grow without memory");
    return checkUnary(I, ValType::I32, ValType::I32, Origin::MemQuery);

  case Opcode::I32Const: {
    ValueTag Tag;
    Tag.Org = Origin::Const;
    pushValue(ValType::I32, Tag);
    return true;
  }
  case Opcode::I64Const: {
    ValueTag Tag;
    Tag.Org = Origin::Const;
    pushValue(ValType::I64, Tag);
    return true;
  }
  case Opcode::F32Const: {
    ValueTag Tag;
    Tag.Org = Origin::Const;
    pushValue(ValType::F32, Tag);
    return true;
  }
  case Opcode::F64Const: {
    ValueTag Tag;
    Tag.Org = Origin::Const;
    pushValue(ValType::F64, Tag);
    return true;
  }

  // Conversions.
  case Opcode::I32WrapI64:
    return checkUnary(I, ValType::I64, ValType::I32, Origin::Convert);
  case Opcode::I32TruncF32S:
  case Opcode::I32TruncF32U:
    return checkUnary(I, ValType::F32, ValType::I32, Origin::Convert);
  case Opcode::I32TruncF64S:
  case Opcode::I32TruncF64U:
    return checkUnary(I, ValType::F64, ValType::I32, Origin::Convert);
  case Opcode::I64ExtendI32S:
  case Opcode::I64ExtendI32U:
    return checkUnary(I, ValType::I32, ValType::I64, Origin::Convert);
  case Opcode::I64TruncF32S:
  case Opcode::I64TruncF32U:
    return checkUnary(I, ValType::F32, ValType::I64, Origin::Convert);
  case Opcode::I64TruncF64S:
  case Opcode::I64TruncF64U:
    return checkUnary(I, ValType::F64, ValType::I64, Origin::Convert);
  case Opcode::F32ConvertI32S:
  case Opcode::F32ConvertI32U:
    return checkUnary(I, ValType::I32, ValType::F32, Origin::Convert);
  case Opcode::F32ConvertI64S:
  case Opcode::F32ConvertI64U:
    return checkUnary(I, ValType::I64, ValType::F32, Origin::Convert);
  case Opcode::F32DemoteF64:
    return checkUnary(I, ValType::F64, ValType::F32, Origin::Convert);
  case Opcode::F64ConvertI32S:
  case Opcode::F64ConvertI32U:
    return checkUnary(I, ValType::I32, ValType::F64, Origin::Convert);
  case Opcode::F64ConvertI64S:
  case Opcode::F64ConvertI64U:
    return checkUnary(I, ValType::I64, ValType::F64, Origin::Convert);
  case Opcode::F64PromoteF32:
    return checkUnary(I, ValType::F32, ValType::F64, Origin::Convert);
  case Opcode::I32ReinterpretF32:
    return checkUnary(I, ValType::F32, ValType::I32, Origin::Convert);
  case Opcode::I64ReinterpretF64:
    return checkUnary(I, ValType::F64, ValType::I64, Origin::Convert);
  case Opcode::F32ReinterpretI32:
    return checkUnary(I, ValType::I32, ValType::F32, Origin::Convert);
  case Opcode::F64ReinterpretI64:
    return checkUnary(I, ValType::I64, ValType::F64, Origin::Convert);
  case Opcode::I32Extend8S:
  case Opcode::I32Extend16S:
    return checkUnary(I, ValType::I32, ValType::I32, Origin::Convert);
  case Opcode::I64Extend8S:
  case Opcode::I64Extend16S:
  case Opcode::I64Extend32S:
    return checkUnary(I, ValType::I64, ValType::I64, Origin::Convert);

  default:
    return fail(std::string("unhandled opcode ") + opcodeName(I.Op) +
                " at instruction " + std::to_string(Index));
  }
}

Result<void> typeFunction(const Module &M, uint32_t DefinedIndex,
                          const char *ErrorPrefix, EvalSink *Sink,
                          const EvalOptions &Options) {
  std::string Prefix = ErrorPrefix;
  if (DefinedIndex >= M.Functions.size())
    return Error(ErrorCode::Malformed, Prefix + "function index out of range");
  const Function &Func = M.Functions[DefinedIndex];
  if (Func.TypeIndex >= M.Types.size())
    return Error(ErrorCode::Malformed,
                 Prefix + "function type index out of range");
  TypingEngine E(M, Func, M.Types[Func.TypeIndex], ErrorPrefix, Sink, Options);
  return E.run();
}

} // namespace wasm
} // namespace snowwhite

//===- analysis/stack_eval.h - Typed-stack abstract interpreter -----------===//
//
// The analysis-side entry to the wasm typing engine (wasm/typing.h): the
// same typed-stack pass that wasm::validateFunction runs, with an EvalSink
// and loop-carry maps attached so every stack slot's provenance tag reaches
// the evidence collector. The engine's observer and tag types are re-exported
// here under their analysis names.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_ANALYSIS_STACK_EVAL_H
#define SNOWWHITE_ANALYSIS_STACK_EVAL_H

#include "support/result.h"
#include "wasm/module.h"
#include "wasm/typing.h"

#include <cstdint>

namespace snowwhite {
namespace analysis {

using wasm::AbstractValue;
using wasm::EvalOptions;
using wasm::EvalSink;
using wasm::LoopCarry;
using wasm::MaxTrackedLocals;
using wasm::mergeTags;
using wasm::NoParam;
using wasm::Origin;
using wasm::ValueTag;

/// Runs the typed-stack evaluation of defined function DefinedIndex: the
/// engine behind wasm::validateFunction, so its verdict and messages are the
/// validator's with an "analysis: " prefix instead of "validation: ".
/// Bounded on hostile inputs (control-nesting cap, no allocation
/// proportional to anything but the body). Sink may be null.
inline Result<void> evaluateFunction(const wasm::Module &M,
                                     uint32_t DefinedIndex,
                                     EvalSink *Sink = nullptr,
                                     const EvalOptions &Options = {}) {
  return wasm::typeFunction(M, DefinedIndex, "analysis: ", Sink, Options);
}

} // namespace analysis
} // namespace snowwhite

#endif // SNOWWHITE_ANALYSIS_STACK_EVAL_H

//===- wasm/validate.h - WebAssembly function validation -------------------===//
//
// Type-checks function bodies per the WebAssembly 1.0 validation algorithm
// (value stack + control frame stack, with stack-polymorphic unreachable
// code) by running the typing engine (typing.h) with nothing attached, and
// checks the module-level index-space invariants. The synthetic frontend
// must only ever produce valid modules; tests assert this property over
// large generated corpora.
//
//===----------------------------------------------------------------------===//

#ifndef SNOWWHITE_WASM_VALIDATE_H
#define SNOWWHITE_WASM_VALIDATE_H

#include "support/result.h"
#include "wasm/module.h"

namespace snowwhite {
namespace wasm {

/// Validates the body of defined function DefinedIndex against its type,
/// locals, and the module context (types, imports, globals, memories).
Result<void> validateFunction(const Module &M, uint32_t DefinedIndex);

/// Validates every defined function plus basic index-space invariants
/// (type indices in range, export/import indices valid, global inits const).
Result<void> validateModule(const Module &M);

} // namespace wasm
} // namespace snowwhite

#endif // SNOWWHITE_WASM_VALIDATE_H

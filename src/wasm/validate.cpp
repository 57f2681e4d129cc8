#include "wasm/validate.h"

#include "wasm/typing.h"

#include <set>
#include <string>
#include <string_view>

namespace snowwhite {
namespace wasm {

Result<void> validateFunction(const Module &M, uint32_t DefinedIndex) {
  return typeFunction(M, DefinedIndex, "validation: ");
}

Result<void> validateModule(const Module &M) {
  for (const FuncImport &Import : M.Imports)
    if (Import.TypeIndex >= M.Types.size())
      return Error(ErrorCode::Malformed,
                   "validation: import type index out of range");
  {
    // Export names must be unique within the module (spec 3.4.10). Found by
    // the analysis-subsystem audit: previously unchecked.
    std::set<std::string_view> ExportNames;
    for (const FuncExport &Export : M.Exports) {
      if (Export.FuncIndex >= M.Imports.size() + M.Functions.size())
        return Error(ErrorCode::Malformed,
                     "validation: export function index out of range");
      if (!ExportNames.insert(Export.Name).second)
        return Error(ErrorCode::Malformed,
                     "validation: duplicate export name '" + Export.Name +
                         "'");
    }
  }
  for (const MemoryDecl &Memory : M.Memories)
    // Spec 3.2.5: a limit's minimum must not exceed its maximum. Found by
    // the analysis-subsystem audit: previously unchecked.
    if (Memory.HasMax && Memory.MinPages > Memory.MaxPages)
      return Error(ErrorCode::Malformed,
                   "validation: memory minimum exceeds maximum");
  for (const GlobalDecl &Global : M.Globals) {
    ImmKind Imm = opcodeImmKind(Global.Init.Op);
    ValType InitType;
    switch (Imm) {
    case ImmKind::I32:
      InitType = ValType::I32;
      break;
    case ImmKind::I64:
      InitType = ValType::I64;
      break;
    case ImmKind::F32:
      InitType = ValType::F32;
      break;
    case ImmKind::F64:
      InitType = ValType::F64;
      break;
    default:
      return Error(ErrorCode::Malformed,
                   "validation: global initializer must be a constant");
    }
    // Spec 3.4.4: the initializer's type must match the declared type.
    // Found by the analysis-subsystem audit: previously unchecked.
    if (InitType != Global.Type)
      return Error(ErrorCode::Malformed,
                   "validation: global initializer type mismatch");
  }
  for (uint32_t I = 0; I < M.Functions.size(); ++I) {
    Result<void> Status = validateFunction(M, I);
    if (Status.isErr())
      return Status.withContext("function " + std::to_string(I));
  }
  return {};
}

} // namespace wasm
} // namespace snowwhite

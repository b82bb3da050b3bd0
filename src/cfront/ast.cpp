#include "cfront/ast.h"

namespace safeflow::cfront {

const FunctionDecl* TranslationUnit::findFunction(
    std::string_view name) const {
  const FunctionDecl* found = nullptr;
  for (const FunctionDecl* fn : functions_) {
    if (fn->name() == name) {
      // Prefer a definition over a forward declaration.
      if (fn->isDefined()) return fn;
      if (found == nullptr) found = fn;
    }
  }
  return found;
}

const VarDecl* TranslationUnit::findGlobal(std::string_view name) const {
  for (const VarDecl* g : globals_) {
    if (g->name() == name) return g;
  }
  return nullptr;
}

}  // namespace safeflow::cfront

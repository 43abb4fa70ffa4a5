#include "table/value.h"

#include <cmath>

#include "common/string_util.h"

namespace d3l {

const char* ColumnTypeToString(ColumnType t) {
  switch (t) {
    case ColumnType::kString:
      return "string";
    case ColumnType::kNumeric:
      return "numeric";
  }
  return "?";
}

bool IsNullCell(std::string_view cell) {
  std::string_view t = TrimView(cell);
  if (t.empty()) return true;
  if (t == "-" || t == "--" || t == "?") return true;
  if (t.size() <= 4) {
    std::string lower = ToLower(t);
    if (lower == "na" || lower == "n/a" || lower == "null" || lower == "none") {
      return true;
    }
  }
  // Every spelling of NaN that ParseDouble reads ("nan", "-NaN", "nan(1)",
  // ...) is missing: a NaN has no place in a numeric sample, whose sorted
  // order KS relies on. Such cells start with 'n' after any '-' and ','
  // characters; checking that first keeps the parse off ordinary cells.
  const size_t first = t.find_first_not_of("-,");
  if (first != std::string_view::npos && (t[first] == 'n' || t[first] == 'N')) {
    const std::optional<double> v = ParseDouble(t);
    if (v.has_value() && std::isnan(*v)) return true;
  }
  return false;
}

std::optional<double> CellAsNumber(std::string_view cell) {
  if (IsNullCell(cell)) return std::nullopt;
  return ParseDouble(cell);
}

}  // namespace d3l

// Cell values and coarse (domain-independent) type inference.
//
// D3L assumes no metadata beyond attribute names and coarse types (string vs
// numeric), so cells are kept in their raw textual form and numeric parsing
// happens on demand.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace d3l {

/// \brief Domain-independent column types, the only typing D3L assumes.
enum class ColumnType {
  kString = 0,
  kNumeric = 1,
};

const char* ColumnTypeToString(ColumnType t);

/// \brief True if the cell should be treated as NULL (empty, a common
/// missing-value marker such as "-", "n/a", "null", or any spelling of NaN
/// that ParseDouble accepts, such as "-nan" or "nan(1)").
bool IsNullCell(std::string_view cell);

/// \brief Parses a cell as a number; respects null markers.
std::optional<double> CellAsNumber(std::string_view cell);

}  // namespace d3l

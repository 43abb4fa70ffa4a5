// Fixed-width console tables: every bench prints its paper exhibit with
// this so outputs line up and runs are easy to diff against each other.
#pragma once

#include <string>
#include <vector>

namespace d3l::eval {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  /// Adds a row; cell count must match the header count.
  void AddRow(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  static std::string Num(double v, int decimals = 3);

  /// Renders the table with a separator line under the header.
  std::string ToString() const;

  /// Prints to stdout.
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace d3l::eval

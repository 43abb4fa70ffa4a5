// Subject-attribute detection (Section III-C).
//
// A subject attribute identifies the entities a dataset is about; the paper
// follows Venetis et al. and trains a supervised classifier whose signal
// "favours leftmost non-numeric attributes with fewer nulls and many
// distinct values". We implement the same model family (logistic
// regression over those features), but train it on generator-labelled
// tables instead of the paper's 350 hand-labelled data.gov.uk tables, which
// are not available. As in the paper, each dataset has exactly one
// subject attribute and it is non-numeric.
#pragma once

#include <vector>

#include "common/status.h"
#include "ml/logistic.h"
#include "table/table.h"

namespace d3l::core {

/// \brief Feature vector of a candidate column (all in [0, 1]).
///
/// [0] 1 - normalized position (leftmost -> 1)
/// [1] distinct ratio (distinct non-null / rows)
/// [2] 1 - null ratio
/// [3] textiness: 1 for string columns, 0 for numeric
/// [4] mean token count per cell, squashed to [0, 1]
std::vector<double> SubjectAttributeFeatures(const Table& table, size_t col);

/// \brief Scores columns and picks the subject attribute of a table.
class SubjectAttributeDetector {
 public:
  SubjectAttributeDetector() : model_(DefaultModel()) {}
  explicit SubjectAttributeDetector(LogisticModel model) : model_(std::move(model)) {}

  /// The index of the most-probable subject column among non-numeric
  /// columns; falls back to the highest-scoring column of any type, and
  /// returns -1 only for tables with no columns.
  int Detect(const Table& table) const;

  /// P(column is the subject attribute).
  double Score(const Table& table, size_t col) const;

  /// Trains a detector from labelled tables (label = subject column index).
  static Result<SubjectAttributeDetector> Train(
      const std::vector<const Table*>& tables, const std::vector<size_t>& subject_cols);

  const LogisticModel& model() const { return model_; }

 private:
  /// Coefficients from a training run on generator-labelled tables
  /// (see tests/subject_attribute_test.cc, which re-learns comparable ones).
  static LogisticModel DefaultModel();

  LogisticModel model_;
};

}  // namespace d3l::core

// Two-sample Kolmogorov-Smirnov statistic (evidence type D, Section III-C).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace d3l {

/// \brief Computes the two-sample KS statistic sup_x |F1(x) - F2(x)|.
///
/// Inputs are extents of numeric attributes understood as samples of their
/// originating domains. Returns 1.0 (maximal distance) if either sample is
/// empty. Inputs need not be sorted: NaN values are dropped, the rest
/// sorted, then passed to KsStatisticSorted.
double KsStatistic(std::vector<double> a, std::vector<double> b);

/// \brief KsStatistic over samples that are already ascending and NaN-free
/// (IsKsSample), as attribute profiles store them: one merge pass, no
/// copies. Returns 1.0 if either sample is empty.
double KsStatisticSorted(std::span<const double> a, std::span<const double> b);

/// \brief True when `sample` meets KsStatisticSorted's precondition:
/// ascending and free of NaN.
bool IsKsSample(std::span<const double> sample);

/// \brief Asymptotic two-sample KS p-value for statistic d with sample
/// sizes n and m (Kolmogorov distribution tail). Used in tests to sanity-
/// check same-distribution behaviour.
double KsPValue(double d, size_t n, size_t m);

}  // namespace d3l

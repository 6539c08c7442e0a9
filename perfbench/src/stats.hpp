// Order statistics shared by the passes and the report.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile `q` in [0, 1] of `values` (reordered in place);
/// 0 for an empty sample.
template <typename T>
double quantile(std::vector<T>& values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return static_cast<double>(values[index]);
}

/// Median of a copy of `values`; 0 for an empty sample.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Mean of the middle half of `values` (the interquartile mean); 0 for an
/// empty sample. Like the median it ignores the slowest and fastest
/// quarter, and it uses more of the sample; it suits values that spread
/// by a factor of two at most, such as the rates of closed-loop passes.
inline double interquartile_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t k = n / 4;
  double sum = 0.0;
  for (std::size_t i = k; i < n - k; ++i) sum += values[i];
  return sum / static_cast<double>(n - 2 * k);
}

}  // namespace perfbench

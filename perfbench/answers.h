// Reading query answers back for the oracles.

#ifndef PERFBENCH_ANSWERS_H_
#define PERFBENCH_ANSWERS_H_

#include <coral/coral.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/data/arg.h"

namespace perfbench {

/// The value of an integer term, or nullopt for any other term.
inline std::optional<int64_t> IntValue(const coral::Arg* a) {
  if (a == nullptr || a->kind() != coral::ArgKind::kInt) return std::nullopt;
  return coral::ArgCast<coral::IntArg>(a)->value();
}

/// The term bound to `var` in `row`, or nullptr.
inline const coral::Arg* Binding(const coral::AnswerRow& row,
                                 const char* var) {
  for (const auto& [name, value] : row.bindings) {
    if (name == var) return value;
  }
  return nullptr;
}

/// The integer bound to `var` in `row`, or nullopt.
inline std::optional<int64_t> IntBinding(const coral::AnswerRow& row,
                                         const char* var) {
  return IntValue(Binding(row, var));
}

/// The integers bound to `var` across all rows, sorted; nullopt when the
/// query failed or some row does not bind `var` to an integer.
inline std::optional<std::vector<int64_t>> SortedInts(
    const coral::StatusOr<coral::QueryResult>& r, const char* var) {
  if (!r.ok()) return std::nullopt;
  std::vector<int64_t> out;
  out.reserve(r->rows.size());
  for (const coral::AnswerRow& row : r->rows) {
    std::optional<int64_t> v = IntBinding(row, var);
    if (!v) return std::nullopt;
    out.push_back(*v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// True when `r` binds `var` to exactly the nodes in `expected_sorted`.
template <typename Int>
bool SameInts(const coral::StatusOr<coral::QueryResult>& r, const char* var,
              const std::vector<Int>& expected_sorted) {
  std::optional<std::vector<int64_t>> got = SortedInts(r, var);
  return got && std::equal(got->begin(), got->end(), expected_sorted.begin(),
                           expected_sorted.end());
}

}  // namespace perfbench

#endif  // PERFBENCH_ANSWERS_H_

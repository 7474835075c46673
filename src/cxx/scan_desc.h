// Copyright (c) 1993-style CORAL reproduction authors.
// C_ScanDesc (paper §6.1): "essentially a cursor over a relation" for
// imperative C++ code. Wraps any answer stream (base relation scan,
// module call, builtin). Per the paper's interface restriction,
// non-ground answers are hidden by default: "variables cannot be returned
// as answers (the presence of non-ground terms is hidden at the
// interface)".

#ifndef CORAL_CXX_SCAN_DESC_H_
#define CORAL_CXX_SCAN_DESC_H_

#include <memory>

#include "src/rel/relation.h"

namespace coral {

class C_ScanDesc {
 public:
  C_ScanDesc() = default;
  C_ScanDesc(std::unique_ptr<TupleIterator> it, bool hide_non_ground = true)
      : it_(std::move(it)), hide_non_ground_(hide_non_ground) {}

  C_ScanDesc(C_ScanDesc&&) = default;
  C_ScanDesc& operator=(C_ScanDesc&&) = default;

  bool valid() const { return it_ != nullptr; }

  /// Next answer tuple; nullptr when exhausted (check status()).
  const Tuple* Next();

  /// Drains the scan into a vector (convenience).
  std::vector<const Tuple*> ToVector();

  /// Number of remaining answers (drains the scan).
  size_t Count();

  const Status& status() const;

 private:
  std::unique_ptr<TupleIterator> it_;
  bool hide_non_ground_ = true;
};

}  // namespace coral

#endif  // CORAL_CXX_SCAN_DESC_H_

// Shape-keyed pool of reusable Matrix buffers — the allocation arena for the
// steady-state-zero-allocation training hot path (DESIGN.md §6).
//
// Ownership model: one Workspace per model instance (DoppelGanger owns one;
// so does every chunk model ChunkedTrainer fine-tunes in parallel). There is
// deliberately NO global workspace: per-model pools mean chunk-parallel
// fine-tuning never shares mutable buffers across threads, so the pool needs
// no locks and TSan stays green.
//
// Usage pattern: call reset() at the top of each training update, then
// get(rows, cols) for every temporary. get() returns a buffer of exactly
// that shape whose *contents are unspecified* (stale values from the
// previous iteration) — callers overwrite or fill(). Within one
// reset-epoch, successive get() calls for the same shape return *distinct*
// buffers (a cursor walks the pool), so a deterministic call sequence maps
// each temporary to the same pooled buffer every iteration. After the first
// iteration warms the pool, get() performs no heap allocation.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ml/matrix.hpp"

namespace netshare::ml {

class Workspace {
 public:
  // A rows x cols buffer with unspecified contents, valid until the next
  // reset(). Stable address: pooled matrices live behind unique_ptr, so
  // references survive pool growth.
  Matrix& get(std::size_t rows, std::size_t cols);

  // Marks every pooled buffer reusable. No memory is released; the next
  // epoch's get() calls re-issue the same buffers in call order.
  void reset();

  // Observability (bench / tests): pool footprint.
  std::size_t pooled_buffers() const;
  std::size_t pooled_doubles() const;

 private:
  struct Pool {
    std::vector<std::unique_ptr<Matrix>> buffers;
    std::size_t next = 0;
  };
  std::unordered_map<std::uint64_t, Pool> pools_;
};

}  // namespace netshare::ml

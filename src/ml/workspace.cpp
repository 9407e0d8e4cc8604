#include "ml/workspace.hpp"

namespace netshare::ml {

namespace {
std::uint64_t shape_key(std::size_t rows, std::size_t cols) {
  return (static_cast<std::uint64_t>(rows) << 32) |
         static_cast<std::uint64_t>(cols & 0xffffffffu);
}
}  // namespace

Matrix& Workspace::get(std::size_t rows, std::size_t cols) {
  Pool& pool = pools_[shape_key(rows, cols)];
  if (pool.next < pool.buffers.size()) {
    return *pool.buffers[pool.next++];
  }
  pool.buffers.push_back(std::make_unique<Matrix>(rows, cols));
  ++pool.next;
  return *pool.buffers.back();
}

void Workspace::reset() {
  for (auto& [key, pool] : pools_) pool.next = 0;
}

std::size_t Workspace::pooled_buffers() const {
  std::size_t n = 0;
  for (const auto& [key, pool] : pools_) n += pool.buffers.size();
  return n;
}

std::size_t Workspace::pooled_doubles() const {
  std::size_t n = 0;
  for (const auto& [key, pool] : pools_) {
    for (const auto& m : pool.buffers) n += m->size();
  }
  return n;
}

}  // namespace netshare::ml

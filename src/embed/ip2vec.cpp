#include "embed/ip2vec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "ml/kernels.hpp"

namespace netshare::embed {

namespace {

std::vector<Token> record_sentence(const net::FiveTuple& key) {
  std::vector<Token> s;
  s.reserve(5);
  s.push_back({TokenKind::kIp, key.src_ip.value()});
  s.push_back({TokenKind::kIp, key.dst_ip.value()});
  if (key.protocol != net::Protocol::kIcmp) {
    s.push_back({TokenKind::kPort, key.src_port});
    s.push_back({TokenKind::kPort, key.dst_port});
  }
  s.push_back({TokenKind::kProtocol, static_cast<std::uint32_t>(key.protocol)});
  return s;
}

double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

std::vector<std::vector<Token>> sentences_from_flows(const net::FlowTrace& t) {
  std::vector<std::vector<Token>> out;
  out.reserve(t.size());
  for (const auto& r : t.records) out.push_back(record_sentence(r.key));
  return out;
}

std::vector<std::vector<Token>> sentences_from_packets(
    const net::PacketTrace& t) {
  std::vector<std::vector<Token>> out;
  out.reserve(t.size());
  for (const auto& p : t.packets) out.push_back(record_sentence(p.key));
  return out;
}

// ---------------------------------------------------------------------------
// Training

Ip2Vec::TrainSetup Ip2Vec::prepare_training(
    const std::vector<std::vector<Token>>& sentences, const Config& config,
    Rng& rng) {
  if (config.dim == 0) throw std::invalid_argument("Ip2Vec::train: dim == 0");
  dim_ = config.dim;
  vocab_.build(sentences, config.vocab);
  if (vocab_.size() == 0) {
    throw std::invalid_argument("Ip2Vec::train: no tokens");
  }

  // Table blocks, initialized in a fixed draw order (kind-major ascending
  // slots, all in-vectors then all out-vectors) so the starting point is a
  // pure function of (sentences, config, rng state).
  const double init = 0.5 / static_cast<double>(dim_);
  auto make_blocks = [&](std::vector<ml::Matrix>& blocks, std::size_t slots) {
    blocks.clear();
    for (std::size_t at = 0; at < slots; at += kBlockRows) {
      blocks.emplace_back(std::min(kBlockRows, slots - at), dim_);
    }
  };
  auto fill_blocks = [&](std::vector<ml::Matrix>& blocks) {
    for (auto& b : blocks) {
      for (double& x : b.data()) x = rng.uniform(-init, init);
    }
  };
  for (std::size_t k = 0; k < kNumTokenKinds; ++k) {
    make_blocks(in_blocks_[k], vocab_.kind_size(static_cast<TokenKind>(k)));
    make_blocks(out_blocks_[k], vocab_.kind_size(static_cast<TokenKind>(k)));
  }
  for (std::size_t k = 0; k < kNumTokenKinds; ++k) fill_blocks(in_blocks_[k]);
  for (std::size_t k = 0; k < kNumTokenKinds; ++k) fill_blocks(out_blocks_[k]);

  TrainSetup ts;
  // Sentences resolved to dense global ids ONCE — the per-pair vocab_.at()
  // hash lookups of the legacy trainer hoisted out of the epoch loops.
  std::size_t token_total = 0;
  for (const auto& s : sentences) token_total += s.size();
  ts.tokens.reserve(token_total);
  ts.tok_begin.reserve(sentences.size() + 1);
  ts.pair_begin.reserve(sentences.size() + 1);
  ts.tok_begin.push_back(0);
  ts.pair_begin.push_back(0);
  for (const auto& s : sentences) {
    for (const Token& t : s) {
      ts.tokens.push_back(static_cast<std::uint32_t>(vocab_.lookup(t)));
    }
    const std::uint64_t len = s.size();
    ts.tok_begin.push_back(ts.tokens.size());
    ts.pair_begin.push_back(ts.pair_begin.back() +
                            (len < 2 ? 0 : len * (len - 1)));
  }

  // Negative-sampling distribution: unigram^neg_power over the whole
  // vocabulary (the legacy sampler's uniform-over-vocab domain, reweighted).
  const auto& counts = vocab_.slot_counts();
  std::vector<double> weights(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    weights[i] = std::pow(static_cast<double>(counts[i]), config.neg_power);
  }
  ts.alias = AliasTable(weights);
  ts.neg_seed = rng.engine()();
  return ts;
}

void Ip2Vec::train(const std::vector<std::vector<Token>>& sentences,
                   const Config& config, Rng& rng) {
  const TrainSetup ts = prepare_training(sentences, config, rng);
  const std::uint64_t total_pairs = ts.total_pairs();
  const auto negatives = static_cast<std::uint64_t>(
      std::max(0, config.negatives));
  const std::uint64_t ipp = 1 + negatives;  // interactions per pair
  const std::uint64_t total_inter = total_pairs * ipp;
  const std::uint64_t batch =
      std::max<std::uint64_t>(1, config.batch_interactions);

  // Row-pointer caches: one indirection per interaction instead of a
  // kind-offset scan. Valid for the duration of this call (blocks are not
  // resized during training).
  std::vector<double*> inr(vocab_.size());
  std::vector<double*> outr(vocab_.size());
  for (std::size_t k = 0; k < kNumTokenKinds; ++k) {
    const std::size_t off = vocab_.kind_offset(static_cast<TokenKind>(k));
    const std::size_t sz = vocab_.kind_size(static_cast<TokenKind>(k));
    for (std::size_t s = 0; s < sz; ++s) {
      inr[off + s] = in_row(k, s);
      outr[off + s] = out_row(k, s);
    }
  }

  std::vector<std::uint32_t> centers(batch), others(batch);
  std::vector<double> coeff(batch);
  const double lr = config.lr;
  const std::size_t dim = dim_;

  // Phase A for the batch [bs, be): resolve each interaction to (center,
  // other, label) and compute its coefficient lr * (label − σ(u·v)) against
  // the pre-batch tables.
  auto coefficients = [&](std::uint64_t epoch, std::uint64_t bs,
                          std::uint64_t be) {
    std::uint64_t s = static_cast<std::uint64_t>(
        std::upper_bound(ts.pair_begin.begin(), ts.pair_begin.end(), bs / ipp) -
        ts.pair_begin.begin() - 1);
    for (std::uint64_t k = bs; k < be; ++k) {
      const std::uint64_t p = k / ipp;
      const std::uint64_t r = k % ipp;
      while (p >= ts.pair_begin[s + 1]) ++s;
      const std::uint64_t len = ts.tok_begin[s + 1] - ts.tok_begin[s];
      const std::uint64_t lp = p - ts.pair_begin[s];
      const std::uint64_t i = lp / (len - 1);
      const std::uint64_t jr = lp % (len - 1);
      const std::uint64_t j = jr + (jr >= i ? 1 : 0);
      const std::uint32_t center = ts.tokens[ts.tok_begin[s] + i];
      const std::uint32_t context = ts.tokens[ts.tok_begin[s] + j];
      std::uint32_t other = context;
      double label = 1.0;
      if (r != 0) {
        other = static_cast<std::uint32_t>(draw_negative(
            ts.alias, context, ts.neg_seed,
            (epoch * total_pairs + p) * negatives + (r - 1)));
        label = 0.0;
      }
      const double* u = inr[center];
      const double* v = outr[other];
      double dot = 0.0;
      for (std::size_t d = 0; d < dim; ++d) dot += u[d] * v[d];
      centers[k - bs] = center;
      others[k - bs] = other;
      coeff[k - bs] = lr * (label - sigmoid(dot));
    }
  };

  for (std::uint64_t epoch = 0;
       epoch < static_cast<std::uint64_t>(std::max(0, config.epochs));
       ++epoch) {
    for (std::uint64_t bs = 0; bs < total_inter; bs += batch) {
      const std::uint64_t be = std::min(bs + batch, total_inter);
      const std::uint64_t len = be - bs;
      coefficients(epoch, bs, be);
      // Phase B: apply in interaction order — the same update rule as the
      // legacy per-pair SGD, so batch_interactions == 1 reproduces it.
      for (std::uint64_t k = 0; k < len; ++k) {
        double* u = inr[centers[k]];
        double* v = outr[others[k]];
        const double c = coeff[k];
        for (std::size_t d = 0; d < dim; ++d) {
          const double ud = u[d];
          u[d] += c * v[d];
          v[d] += c * ud;
        }
      }
    }
  }
  finalize_tables();
}

void Ip2Vec::train_reference(const std::vector<std::vector<Token>>& sentences,
                             const Config& config, Rng& rng) {
  const TrainSetup ts = prepare_training(sentences, config, rng);
  const std::uint64_t total_pairs = ts.total_pairs();
  const auto negatives = static_cast<std::uint64_t>(
      std::max(0, config.negatives));
  const std::uint64_t batch =
      std::max<std::uint64_t>(1, config.batch_interactions);
  const std::size_t dim = dim_;

  // Naive traversal: nested sentence/pair loops (vs the engine's flat
  // interaction-index arithmetic), one pending batch of coefficients
  // computed at push time (tables only change at flush, so values are read
  // against the pre-batch state exactly like the engine's phase A).
  struct Pending {
    std::uint32_t center, other;
    double coeff;
  };
  std::vector<Pending> pending;
  pending.reserve(batch);

  // Locate rows by global id with plain kind-offset scans (no caches).
  auto in_of = [&](std::uint32_t g) {
    for (std::size_t k = kNumTokenKinds; k-- > 0;) {
      const std::size_t off = vocab_.kind_offset(static_cast<TokenKind>(k));
      if (g >= off) return in_row(k, g - off);
    }
    throw std::out_of_range("Ip2Vec::train_reference: global id");
  };
  auto out_of = [&](std::uint32_t g) {
    for (std::size_t k = kNumTokenKinds; k-- > 0;) {
      const std::size_t off = vocab_.kind_offset(static_cast<TokenKind>(k));
      if (g >= off) return out_row(k, g - off);
    }
    throw std::out_of_range("Ip2Vec::train_reference: global id");
  };
  auto apply_pending = [&]() {
    for (const Pending& e : pending) {
      double* u = in_of(e.center);
      double* v = out_of(e.other);
      for (std::size_t d = 0; d < dim; ++d) {
        const double ud = u[d];
        u[d] += e.coeff * v[d];
        v[d] += e.coeff * ud;
      }
    }
    pending.clear();
  };
  auto push = [&](std::uint32_t center, std::uint32_t other, double label) {
    const double* u = in_of(center);
    const double* v = out_of(other);
    double dot = 0.0;
    for (std::size_t d = 0; d < dim; ++d) dot += u[d] * v[d];
    pending.push_back({center, other, config.lr * (label - sigmoid(dot))});
    if (pending.size() == batch) apply_pending();
  };

  for (std::uint64_t epoch = 0;
       epoch < static_cast<std::uint64_t>(std::max(0, config.epochs));
       ++epoch) {
    std::uint64_t p = 0;  // global pair index within the epoch
    for (std::size_t s = 0; s + 1 < ts.tok_begin.size(); ++s) {
      const std::uint64_t len = ts.tok_begin[s + 1] - ts.tok_begin[s];
      if (len < 2) continue;
      for (std::uint64_t i = 0; i < len; ++i) {
        const std::uint32_t center = ts.tokens[ts.tok_begin[s] + i];
        for (std::uint64_t j = 0; j < len; ++j) {
          if (i == j) continue;
          const std::uint32_t context = ts.tokens[ts.tok_begin[s] + j];
          push(center, context, 1.0);
          for (std::uint64_t r = 0; r < negatives; ++r) {
            const std::uint32_t neg = static_cast<std::uint32_t>(draw_negative(
                ts.alias, context, ts.neg_seed,
                (epoch * total_pairs + p) * negatives + r));
            push(center, neg, 0.0);
          }
          ++p;
        }
      }
    }
    apply_pending();  // epoch boundary: batches never span epochs
  }
  finalize_tables();
}

void Ip2Vec::finalize_tables() {
  for (std::size_t k = 0; k < kNumTokenKinds; ++k) {
    const std::size_t slots = vocab_.kind_size(static_cast<TokenKind>(k));
    norms_[k].resize(slots);
    dec_blocks_[k].clear();
    for (std::size_t at = 0; at < slots; at += kBlockRows) {
      const std::size_t mb = std::min(kBlockRows, slots - at);
      ml::Matrix t(dim_, mb);
      for (std::size_t j = 0; j < mb; ++j) {
        const double* e = in_row(k, at + j);
        double n2 = 0.0;
        for (std::size_t d = 0; d < dim_; ++d) {
          t(d, j) = e[d];
          n2 += e[d] * e[d];
        }
        norms_[k][at + j] = n2;
      }
      dec_blocks_[k].push_back(std::move(t));
    }
  }
}

// ---------------------------------------------------------------------------
// Lookup / decode

std::span<const double> Ip2Vec::embed(const Token& t) const {
  const std::size_t slot = vocab_.kind_slot(t);
  if (slot == ShardedVocab::npos) {
    throw std::out_of_range("Ip2Vec::embed: OOV token");
  }
  return {in_row(static_cast<std::size_t>(t.kind), slot), dim_};
}

std::span<const double> Ip2Vec::slot_vector(TokenKind kind,
                                            std::size_t slot) const {
  if (slot >= vocab_.kind_size(kind)) {
    throw std::out_of_range("Ip2Vec::slot_vector: slot");
  }
  return {in_row(static_cast<std::size_t>(kind), slot), dim_};
}

std::span<const double> Ip2Vec::slot_out_vector(TokenKind kind,
                                                std::size_t slot) const {
  if (slot >= vocab_.kind_size(kind)) {
    throw std::out_of_range("Ip2Vec::slot_out_vector: slot");
  }
  const auto k = static_cast<std::size_t>(kind);
  return {out_blocks_[k][slot >> kBlockShift].row_ptr(slot & (kBlockRows - 1)),
          dim_};
}

Token Ip2Vec::nearest(std::span<const double> vec, TokenKind kind) const {
  return nearest_if(vec, kind, [](const Token&) { return true; });
}

Token Ip2Vec::nearest_if(
    std::span<const double> vec, TokenKind kind,
    const std::function<bool(const Token&)>& accept) const {
  if (vec.size() != dim_) throw std::invalid_argument("Ip2Vec::nearest: dim");
  const auto ki = static_cast<std::size_t>(kind);
  const std::size_t m = vocab_.kind_size(kind);
  constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();
  double best = std::numeric_limits<double>::infinity();
  double best_any = std::numeric_limits<double>::infinity();
  std::size_t best_slot = kNoSlot, best_any_slot = kNoSlot;
  for (std::size_t w = 0; w < m; ++w) {
    const double* u = in_row(ki, w);
    const double cap = std::max(best, best_any);
    double d2 = 0.0;
    for (std::size_t k = 0; k < dim_ && d2 < cap; ++k) {
      const double d = u[k] - vec[k];
      d2 += d * d;
    }
    if (d2 < best_any) {
      best_any = d2;
      best_any_slot = w;
    }
    if (d2 < best && accept(vocab_.token_at(kind, w))) {
      best = d2;
      best_slot = w;
    }
  }
  if (best_slot == kNoSlot) best_slot = best_any_slot;
  if (best_slot == kNoSlot) {
    throw std::out_of_range("Ip2Vec::nearest: no tokens of kind");
  }
  return vocab_.token_at(kind, best_slot);
}

void Ip2Vec::nearest_batch(const ml::Matrix& queries, TokenKind kind,
                           std::span<const std::uint8_t* const> masks,
                           std::span<Token> out, ml::Workspace& ws) const {
  const std::size_t n = queries.rows();
  if (queries.cols() != dim_) {
    throw std::invalid_argument("Ip2Vec::nearest_batch: dim");
  }
  if (out.size() != n) {
    throw std::invalid_argument("Ip2Vec::nearest_batch: out size");
  }
  if (!masks.empty() && masks.size() != n) {
    throw std::invalid_argument("Ip2Vec::nearest_batch: masks size");
  }
  const auto ki = static_cast<std::size_t>(kind);
  const std::size_t m = vocab_.kind_size(kind);
  if (m == 0) throw std::out_of_range("Ip2Vec::nearest: no tokens of kind");
  if (n == 0) return;
  const auto& dec = dec_blocks_[ki];
  const double* norms = norms_[ki].data();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Fixed pooled scratch: a query panel, one score panel reused (via
  // capacity-preserving resize) across candidate blocks, and per-row
  // running minima [best, best_slot, any, any_slot].
  ml::Matrix& qb = ws.get(std::min(n, kQueryBlock), dim_);
  ml::Matrix& scores = ws.get(std::min(n, kQueryBlock), std::min(m, kBlockRows));
  ml::Matrix& run = ws.get(n, 4);
  for (std::size_t i = 0; i < n; ++i) {
    double* br = run.row_ptr(i);
    br[0] = kInf;
    br[1] = 0.0;
    br[2] = kInf;
    br[3] = 0.0;
  }

  for (std::size_t rb = 0; rb < n; rb += kQueryBlock) {
    const std::size_t nb = std::min(kQueryBlock, n - rb);
    qb.resize(nb, dim_);
    for (std::size_t i = 0; i < nb; ++i) {
      std::memcpy(qb.row_ptr(i), queries.row_ptr(rb + i),
                  dim_ * sizeof(double));
    }
    for (std::size_t b = 0; b < dec.size(); ++b) {
      const std::size_t sb = b << kBlockShift;
      const std::size_t mb = dec[b].cols();
      // Cross terms for the whole (query panel × candidate block) tile in
      // one kernel call: bitwise identical to the serial reference at any
      // thread count / SIMD tier (DESIGN.md §5/§10).
      ml::kernels::matmul_into(qb, dec[b], scores);
      for (std::size_t i = 0; i < nb; ++i) {
        const double* row = scores.row_ptr(i);
        double* br = run.row_ptr(rb + i);
        // Norm-form score: ‖e‖² − 2⟨q,e⟩ (the per-row ‖q‖² constant cannot
        // change the argmin). Score and argmin are fused into one read-only
        // sweep of the product tile — the tile is far larger than cache, so
        // a separate score pass would double its memory traffic. Strict <
        // keeps the first minimum, so ascending blocks × ascending j
        // reproduce the serial scan order.
        if (masks.empty()) {
          for (std::size_t j = 0; j < mb; ++j) {
            const double s = norms[sb + j] - 2.0 * row[j];
            if (s < br[2]) {
              br[2] = s;
              br[3] = static_cast<double>(sb + j);
            }
          }
        } else {
          const std::uint8_t* mask = masks[rb + i];
          for (std::size_t j = 0; j < mb; ++j) {
            const double s = norms[sb + j] - 2.0 * row[j];
            if (s < br[2]) {
              br[2] = s;
              br[3] = static_cast<double>(sb + j);
            }
            if (s < br[0] && mask[sb + j]) {
              br[0] = s;
              br[1] = static_cast<double>(sb + j);
            }
          }
        }
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    const double* br = run.row_ptr(i);
    // Masked rows where nothing qualified fall back to the unfiltered
    // nearest, mirroring nearest_if.
    const std::size_t slot = static_cast<std::size_t>(
        (!masks.empty() && br[0] < kInf) ? br[1] : br[3]);
    out[i] = vocab_.token_at(kind, slot);
  }
}

void Ip2Vec::nearest_batch_reference(
    const ml::Matrix& queries, TokenKind kind,
    std::span<const std::uint8_t* const> masks, std::span<Token> out) const {
  const std::size_t n = queries.rows();
  if (queries.cols() != dim_) {
    throw std::invalid_argument("Ip2Vec::nearest_batch: dim");
  }
  if (out.size() != n) {
    throw std::invalid_argument("Ip2Vec::nearest_batch: out size");
  }
  if (!masks.empty() && masks.size() != n) {
    throw std::invalid_argument("Ip2Vec::nearest_batch: masks size");
  }
  const auto ki = static_cast<std::size_t>(kind);
  const std::size_t m = vocab_.kind_size(kind);
  if (m == 0) throw std::out_of_range("Ip2Vec::nearest: no tokens of kind");
  const double* norms = norms_[ki].data();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  for (std::size_t i = 0; i < n; ++i) {
    const double* q = queries.row_ptr(i);
    const std::uint8_t* mask = masks.empty() ? nullptr : masks[i];
    double best = kInf, any = kInf;
    std::size_t best_slot = 0, any_slot = 0;
    bool has_best = false;
    for (std::size_t j = 0; j < m; ++j) {
      const double* e = in_row(ki, j);
      // Ascending-k accumulation with one rounding per product and the
      // reference kernel's zero-skip — bitwise the chain matmul_into
      // produces for this element.
      double acc = 0.0;
      for (std::size_t k = 0; k < dim_; ++k) {
        const double qk = q[k];
        if (qk == 0.0) continue;
        acc += qk * e[k];
      }
      const double s = norms[j] - 2.0 * acc;
      if (s < any) {
        any = s;
        any_slot = j;
      }
      if (s < best && (!mask || mask[j])) {
        best = s;
        best_slot = j;
        has_best = true;
      }
    }
    out[i] = vocab_.token_at(kind, (mask && has_best) ? best_slot : any_slot);
  }
}

bool Ip2Vec::bitwise_equal(const Ip2Vec& other) const {
  if (dim_ != other.dim_ || vocab_.size() != other.vocab_.size()) return false;
  for (std::size_t k = 0; k < kNumTokenKinds; ++k) {
    const auto kind = static_cast<TokenKind>(k);
    const std::size_t sz = vocab_.kind_size(kind);
    if (sz != other.vocab_.kind_size(kind)) return false;
    for (std::size_t s = 0; s < sz; ++s) {
      if (!(vocab_.token_at(kind, s) == other.vocab_.token_at(kind, s))) {
        return false;
      }
    }
    for (std::size_t b = 0; b < in_blocks_[k].size(); ++b) {
      const auto& a = in_blocks_[k][b];
      const auto& c = other.in_blocks_[k][b];
      if (a.rows() != c.rows() ||
          std::memcmp(a.data().data(), c.data().data(),
                      a.rows() * a.cols() * sizeof(double)) != 0) {
        return false;
      }
    }
    for (std::size_t b = 0; b < out_blocks_[k].size(); ++b) {
      const auto& a = out_blocks_[k][b];
      const auto& c = other.out_blocks_[k][b];
      if (a.rows() != c.rows() ||
          std::memcmp(a.data().data(), c.data().data(),
                      a.rows() * a.cols() * sizeof(double)) != 0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace netshare::embed

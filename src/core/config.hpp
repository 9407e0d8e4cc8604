// NetShare end-to-end configuration (Sec. 4.2).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gan/doppelganger.hpp"
#include "ml/kernels.hpp"

namespace netshare::core {

struct NetShareConfig {
  // --- Insight 1: flow-split time-series formulation ---
  std::size_t max_seq_len = 8;  // per-flow series truncation (scaled down)

  // --- Insight 2: encodings ---
  bool use_ip2vec_ports = true;  // false = bit-encode ports (ablation)
  bool log_transform = true;     // false = min-max on large-support fields
  std::size_t ip2vec_dim = 4;  // scaled-down embedding width
  // IP2Vec scalability knobs (DESIGN.md §12). max_ip_slots = 0 keeps the
  // legacy exact-slot-per-IP behaviour; a positive cap folds rare addresses
  // into shared tail buckets so million-IP vocabularies stay bounded.
  std::size_t ip2vec_max_ip_slots = 0;
  std::size_t ip2vec_tail_buckets = 256;

  // --- Insight 3: chunked fine-tuning ---
  std::size_t num_chunks = 5;     // M evenly time-spaced chunks
  int seed_iterations = 250;      // chunk-0 training
  int finetune_iterations = 80;   // per later chunk
  std::size_t threads = 4;        // total thread budget (chunks × kernels)
  bool netshare_v0 = false;       // monolithic: single model, no chunking
  bool naive_parallel = false;    // ablation: chunks without warm start
  bool use_flow_tags = true;      // ablation: cross-chunk flow tags

  // --- matmul kernel layer (ml/kernels.hpp) ---
  // kernels.threads == 0 defers to `threads` above during training: the seed
  // phase gives the whole budget to the kernels, the fine-tune phase splits
  // it between chunk workers and per-worker kernel threads (see
  // ChunkedTrainer::fit). Parallel kernels are bitwise identical to serial.
  // kernels.simd is the vector-tier ceiling (DESIGN.md §10): kAvx2 (default)
  // lets runtime CPUID dispatch run A·Bᵀ and the fused GRU gate on AVX2,
  // kScalar pins every op to the blocked scalar kernels. Either tier — like
  // the NETSHARE_SIMD=off env override — produces bitwise-identical models,
  // flows, and snapshots.
  ml::kernels::KernelConfig kernels;

  // --- Insight 4: differential privacy ---
  bool dp = false;
  privacy::DpSgdConfig dp_config{1.0, 1.0};
  // Snapshot of a model pre-trained on PUBLIC data (see NetShare::snapshot);
  // when set with dp=true, DP-SGD fine-tunes from it.
  std::optional<std::vector<double>> public_snapshot;

  // GAN hyperparameters (identical across datasets, per Sec. 5).
  gan::DgConfig dg;

  // --- robustness (DESIGN.md §9) ---
  // When non-empty, ChunkedTrainer::fit writes one durable checkpoint per
  // successfully trained chunk into this directory (versioned + CRC32,
  // temp-file + atomic rename; see ml/serialize.hpp) and, on a later fit
  // with the same config, resumes: chunks whose valid checkpoint exists on
  // disk are restored instead of retrained, so a killed fit restarts from
  // where it died. Invalid/corrupt checkpoints are diagnosed and retrained.
  std::string checkpoint_dir;

  std::uint64_t seed = 42;
};

}  // namespace netshare::core

// Tests for the paper-CNN builder (Section III-B / Figure 2) and the
// zero-copy sliding-window scoring path built on top of it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "core/dataset.hpp"
#include "core/model.hpp"
#include "core/sliding_window.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/kernels/parallel.hpp"
#include "nn/loss.hpp"

namespace scalocate::core {
namespace {

nn::Tensor random_window(std::size_t batch, std::size_t n, std::uint64_t seed) {
  nn::Tensor t({batch, 1, n});
  Rng rng(seed);
  for (float& v : t.flat()) v = static_cast<float>(rng.normal());
  return t;
}

TEST(PaperCnn, OutputsTwoClassScores) {
  auto net = build_paper_cnn(CnnConfig::scaled());
  const auto y = net->forward(random_window(3, 128, 1));
  EXPECT_EQ(y.rank(), 2u);
  EXPECT_EQ(y.dim(0), 3u);
  EXPECT_EQ(y.dim(1), 2u);
}

TEST(PaperCnn, GlobalPoolingAcceptsDifferentWindowSizes) {
  // The property Section III-B highlights: Ntrain != Ninf with one model.
  auto net = build_paper_cnn(CnnConfig::scaled());
  net->set_training(false);
  EXPECT_NO_THROW(net->forward(random_window(1, 320, 2)));
  EXPECT_NO_THROW(net->forward(random_window(1, 192, 3)));
  EXPECT_NO_THROW(net->forward(random_window(1, 64, 4)));
}

TEST(PaperCnn, PaperConfigUsesKernel64And16Filters) {
  const auto cfg = CnnConfig::paper();
  EXPECT_EQ(cfg.kernel_size, 64u);
  EXPECT_EQ(cfg.base_filters, 16u);
}

TEST(PaperCnn, ParameterCountMatchesArchitecture) {
  const CnnConfig cfg = CnnConfig::scaled();  // F=16, k=16, H=32
  auto net = build_paper_cnn(cfg);
  std::size_t total = 0;
  for (auto* p : net->params()) total += p->value.numel();
  // conv1: 1*16*16+16; bn1: 32
  // rb1: 2x(16*16*16+16) + 2x32
  // rb2: (16*32*16+32) + (32*32*16+32) + 2x64 + proj(16*32*1+32)
  // fc1: 32*32+32; fc2: 32*2+2
  const std::size_t expected =
      (1 * 16 * 16 + 16) + 32 + 2 * (16 * 16 * 16 + 16) + 2 * 32 +
      (16 * 32 * 16 + 32) + (32 * 32 * 16 + 32) + 2 * 64 +
      (16 * 32 * 1 + 32) + (32 * 32 + 32) + (32 * 2 + 2);
  EXPECT_EQ(total, expected);
}

TEST(PaperCnn, DeterministicInitPerSeed) {
  CnnConfig cfg = CnnConfig::scaled();
  cfg.init_seed = 42;
  auto a = build_paper_cnn(cfg);
  auto b = build_paper_cnn(cfg);
  a->set_training(false);
  b->set_training(false);
  const auto x = random_window(1, 96, 5);
  const auto ya = a->forward(x);
  const auto yb = b->forward(x);
  EXPECT_FLOAT_EQ(ya.at(0, 0), yb.at(0, 0));
  EXPECT_FLOAT_EQ(ya.at(0, 1), yb.at(0, 1));
}

TEST(PaperCnn, TrainableEndToEnd) {
  // One Adam-free gradient step through the full network must not throw and
  // must produce finite gradients.
  auto net = build_paper_cnn(CnnConfig::scaled());
  net->set_training(true);
  nn::SoftmaxCrossEntropy loss;
  const auto x = random_window(4, 96, 7);
  const auto logits = net->forward(x);
  loss.forward(logits, {0, 1, 0, 1});
  net->backward(loss.backward());
  for (auto* p : net->params())
    for (float g : p->grad.flat()) EXPECT_TRUE(std::isfinite(g));
}

TEST(PaperCnn, DescribeMentionsAllStages) {
  const std::string desc = describe_paper_cnn(CnnConfig::paper());
  EXPECT_NE(desc.find("Conv1d(1->16, k=64"), std::string::npos);
  EXPECT_NE(desc.find("ResidualBlock"), std::string::npos);
  EXPECT_NE(desc.find("GlobalAvgPool1d"), std::string::npos);
  EXPECT_NE(desc.find("Linear(32->2)"), std::string::npos);
  EXPECT_NE(desc.find("Softmax"), std::string::npos);
}

// ---------------------------------------------------------------------------
// SlidingWindowClassifier: the zero-copy score_into path
// ---------------------------------------------------------------------------

std::vector<float> random_trace(std::size_t n, std::uint64_t seed) {
  std::vector<float> t(n);
  Rng rng(seed);
  for (float& v : t) v = static_cast<float>(rng.normal());
  return t;
}

TEST(SlidingWindow, NumWindowsEdgeCases) {
  auto net = build_paper_cnn(CnnConfig::scaled());
  net->set_training(false);
  SlidingWindowClassifier c(*net, 192, 48);
  EXPECT_EQ(c.num_windows(191), 0u);  // too short
  EXPECT_EQ(c.num_windows(192), 1u);
  EXPECT_EQ(c.num_windows(192 + 47), 1u);
  EXPECT_EQ(c.num_windows(192 + 48), 2u);
}

TEST(SlidingWindow, ScoreIntoMatchesClassify) {
  auto net = build_paper_cnn(CnnConfig::scaled());
  net->set_training(false);
  SlidingWindowClassifier c(*net, 192, 48);
  const auto trace = random_trace(2000, 11);

  nn::Workspace ws_a, ws_b;
  const auto result = c.classify(trace, ws_a);
  std::vector<float> scores(c.num_windows(trace.size()), -1e30f);
  c.score_into(trace, scores, ws_b);
  ASSERT_EQ(result.scores.size(), scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i)
    EXPECT_FLOAT_EQ(result.scores[i], scores[i]) << "window " << i;
}

TEST(SlidingWindow, ZeroCopyPathMatchesExplicitStaging) {
  // The in-place standardize-into-arena path must produce exactly what
  // copy-out/standardize/copy-in staging through the unfused layer graph
  // produces.
  auto net = build_paper_cnn(CnnConfig::scaled());
  net->set_training(false);
  const std::size_t window = 192, stride = 48;
  SlidingWindowClassifier c(*net, window, stride);
  const auto trace = random_trace(1500, 13);

  nn::Workspace ws;
  const auto fast = c.classify(trace, ws);

  const std::size_t n_windows = c.num_windows(trace.size());
  std::vector<float> manual(n_windows);
  for (std::size_t i = 0; i < n_windows; ++i) {
    std::vector<float> buf(trace.begin() + static_cast<std::ptrdiff_t>(i * stride),
                           trace.begin() + static_cast<std::ptrdiff_t>(i * stride + window));
    DatasetBuilder::standardize_window(buf);
    nn::Tensor one({1, 1, window});
    std::copy(buf.begin(), buf.end(), one.data());
    const nn::Tensor logits = net->forward(one, ws);
    manual[i] = logits.at(0, 1) - logits.at(0, 0);
  }
  ASSERT_EQ(fast.scores.size(), manual.size());
  EXPECT_TRUE(std::memcmp(fast.scores.data(), manual.data(),
                          n_windows * sizeof(float)) == 0);
}

/// Scores windows [first, first + count) of `trace` with one
/// score_window_batch call.
std::vector<float> score_range(const SlidingWindowClassifier& c,
                               const std::vector<float>& trace,
                               std::size_t first, std::size_t count,
                               nn::Workspace& ws) {
  const std::span<const float> samples(trace);
  std::vector<float> scores(count, -1e30f);
  c.score_window_batch(
      count,
      [&](std::size_t i) {
        return samples.subspan((first + i) * c.stride(), c.window());
      },
      scores.data(), ws);
  return scores;
}

/// Each window scored alone: the reference every batch shape must match.
std::vector<float> score_singly(const SlidingWindowClassifier& c,
                                const std::vector<float>& trace,
                                std::size_t count) {
  nn::kernels::IntraOpGuard one_thread(1);
  nn::Workspace ws;
  std::vector<float> scores(count);
  for (std::size_t i = 0; i < count; ++i)
    scores[i] = score_range(c, trace, i, 1, ws)[0];
  return scores;
}

bool bit_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

constexpr std::size_t kCounts[] = {1, 7, 31, 32, 33, 64, 65, 256};
constexpr std::size_t kBudgets[] = {1, 2, 4, 8};

TEST(SlidingWindow, BatchSizeDoesNotChangeScores) {
  // Batch grouping is an implementation detail: each row is independent,
  // so windows scored 1, 7 or 64 at a time give identical scores.
  auto net = build_paper_cnn(CnnConfig::scaled());
  net->set_training(false);
  const auto trace = random_trace(1800, 17);
  SlidingWindowClassifier c(*net, 192, 48);
  const std::size_t n = c.num_windows(trace.size());
  nn::Workspace whole_ws;
  const auto whole = c.classify(trace, whole_ws).scores;
  ASSERT_EQ(whole.size(), n);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    nn::Workspace ws;
    std::vector<float> scores;
    for (std::size_t base = 0; base < n; base += batch) {
      const auto part = score_range(c, trace, base, std::min(batch, n - base), ws);
      scores.insert(scores.end(), part.begin(), part.end());
    }
    EXPECT_TRUE(bit_equal(scores, whole)) << "batch " << batch;
  }
}

TEST(SlidingWindow, TiledBatchBitIdenticalAtEveryCountAndBudget) {
  // Counts straddle the 32-window tile (one short tile, exact tiles, a
  // ragged last tile); budgets cover the serial path, fewer workers than
  // tiles, and more workers than the box has cores.
  auto net = build_paper_cnn(CnnConfig::scaled());
  net->set_training(false);
  SlidingWindowClassifier c(*net, 192, 48);
  ASSERT_EQ(SlidingWindowClassifier::kScoreTile, 32u);
  const auto trace = random_trace(192 + 48 * 255, 23);
  const auto reference = score_singly(c, trace, 256);
  for (const std::size_t budget : kBudgets) {
    nn::kernels::IntraOpGuard intra(budget);
    nn::Workspace ws;  // reused across counts: lanes and staging regrow
    for (const std::size_t count : kCounts) {
      const auto scores = score_range(c, trace, 0, count, ws);
      EXPECT_TRUE(bit_equal(scores, std::vector<float>(
                                        reference.begin(),
                                        reference.begin() +
                                            static_cast<std::ptrdiff_t>(count))))
          << "count " << count << " budget " << budget;
    }
  }
}

TEST(SlidingWindow, TiledBatchBitIdenticalInsideParallelRegion) {
  // A call from inside a parallel_for chunk must run its tiles inline
  // (no nested fork) and still match. Each chunk scores a different
  // window range with its own workspace, concurrently.
  auto net = build_paper_cnn(CnnConfig::scaled());
  net->set_training(false);
  SlidingWindowClassifier c(*net, 192, 48);
  const auto trace = random_trace(192 + 48 * 255, 29);
  const auto reference = score_singly(c, trace, 256);
  constexpr std::size_t kChunks = 4, kPerChunk = 64;
  for (const std::size_t budget : kBudgets) {
    nn::kernels::IntraOpGuard intra(budget);
    std::vector<nn::Workspace> ws(kChunks);
    std::vector<std::vector<float>> scores(kChunks);
    nn::kernels::parallel_for(kChunks, [&](std::size_t chunk) {
      EXPECT_TRUE(nn::kernels::in_parallel_region());
      scores[chunk] =
          score_range(c, trace, chunk * kPerChunk, kPerChunk, ws[chunk]);
    });
    std::vector<float> all;
    for (const auto& s : scores) all.insert(all.end(), s.begin(), s.end());
    EXPECT_TRUE(bit_equal(all, reference)) << "budget " << budget;
  }
}

TEST(SlidingWindow, PlanScoresMemcmpEqualToGraphForward) {
  // The classifier's eval plan against the unfused layer graph on the
  // same standardized windows: both configs, non-trivial batch-norm
  // statistics, one window and two tiles (the tile-parallel path at
  // budget 4), every tier. test_nn_kernels covers more counts.
  const std::size_t window = 96, stride = 24;
  const auto trace = random_trace(window + stride * 40, 31);
  for (const CnnConfig& config : {CnnConfig::paper(), CnnConfig::scaled()}) {
    auto net = build_paper_cnn(config);
    Rng rng(config.kernel_size);
    for (nn::Param* p : net->params())
      for (float& v : p->value.flat())
        v += static_cast<float>(rng.uniform(-0.05, 0.05));
    for (std::vector<float>* buffer : net->buffers())
      for (float& v : *buffer) v = static_cast<float>(rng.uniform(0.05, 1.5));
    net->set_training(false);
    const SlidingWindowClassifier c(*net, window, stride);
    for (const std::size_t count : {1u, 33u}) {
      nn::Tensor x({count, 1, window});
      for (std::size_t i = 0; i < count; ++i)
        nn::kernels::standardize(
            std::span<const float>(trace).subspan(i * stride, window),
            x.data() + i * window);
      for (const auto tier : {nn::kernels::detail::Isa::kAvx512,
                              nn::kernels::detail::Isa::kAvx2,
                              nn::kernels::detail::Isa::kPortable}) {
        if (tier > nn::kernels::detail::active_isa()) continue;
        nn::kernels::detail::IsaCapGuard cap(tier);
        std::vector<float> reference(count);
        {
          nn::kernels::IntraOpGuard one_thread(1);
          nn::Workspace ws;
          const nn::Tensor logits = net->forward(x, ws);
          for (std::size_t i = 0; i < count; ++i)
            reference[i] = logits.at(i, 1) - logits.at(i, 0);
        }
        for (const std::size_t budget : {1u, 4u}) {
          nn::kernels::IntraOpGuard intra(budget);
          nn::Workspace ws;
          EXPECT_TRUE(bit_equal(score_range(c, trace, 0, count, ws), reference))
              << "kernel " << config.kernel_size << " count " << count
              << " budget " << budget << " " << nn::kernels::isa_name();
        }
      }
    }
  }
}

}  // namespace
}  // namespace scalocate::core

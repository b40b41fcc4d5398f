// Heap-allocation budget of the scoring path.
//
// This program replaces the global operator new/delete with counting
// versions, so it must stay a test executable of its own: every
// allocation anywhere in the process is counted. After one warm-up call
// per window count, SlidingWindowClassifier::score_window_batch and
// score_into at intra-op budget 1 (the whole-trace job shape) must not
// allocate at all: the eval plan's arena, the kernels' pack buffers and
// the tile dispatch are all reused. CoLocator compiles its plan once per
// model, so a whole-trace job allocates only its result and segmenter
// state, however many windows it scores, and opening a stream (self-scoring
// or batched) allocates only the stream's own state.
//
// ASan and TSan supply their own allocator, so a sanitizer build keeps
// the default operators and skips the checks (GTEST_SKIP, reported by
// ctest as skipped rather than passed).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/locator.hpp"
#include "core/model.hpp"
#include "core/sliding_window.hpp"
#include "nn/kernels/parallel.hpp"
#include "runtime/streaming_locator.hpp"
#include "runtime/window_batcher.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SCALOCATE_TEST_SANITIZED 1
#endif

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

#if !defined(SCALOCATE_TEST_SANITIZED)
// The replacements pair malloc with free by design; GCC would otherwise
// flag the free inside operator delete once it is inlined into callers.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
#endif

namespace scalocate::core {
namespace {

std::vector<float> random_trace(std::size_t n, std::uint64_t seed) {
  std::vector<float> t(n);
  Rng rng(seed);
  for (float& v : t) v = static_cast<float>(rng.normal());
  return t;
}

constexpr const char* kSanitized =
    "sanitizer build (SCALOCATE_SANITIZE): ASan/TSan replace the global "
    "allocator, so allocations are not counted";

TEST(AllocFreeScoring, CounterSeesAllocations) {
#if defined(SCALOCATE_TEST_SANITIZED)
  GTEST_SKIP() << kSanitized;
#endif
  const std::size_t before = g_allocations.load();
  auto* probe = new std::vector<float>(16);
  delete probe;
  EXPECT_GE(g_allocations.load() - before, 2u);
}

class AllocFreeScoringConfigs : public ::testing::TestWithParam<CnnConfig> {};

TEST_P(AllocFreeScoringConfigs, SteadyStateScoringAllocatesNothing) {
#if defined(SCALOCATE_TEST_SANITIZED)
  GTEST_SKIP() << kSanitized;
#endif
  auto net = build_paper_cnn(GetParam());
  net->set_training(false);
  const std::size_t window = 192, stride = 48;
  const SlidingWindowClassifier c(*net, window, stride);
  const auto trace = random_trace(window + stride * 255, 41);
  const std::span<const float> samples(trace);
  std::vector<float> scores(256);

  nn::kernels::IntraOpGuard one_thread(1);
  nn::Workspace ws;
  for (const std::size_t count : {1u, 31u, 32u, 33u, 256u}) {
    const auto window_at = [&](std::size_t i) {
      return samples.subspan(i * stride, window);
    };
    c.score_window_batch(count, window_at, scores.data(), ws);  // warm-up
    std::size_t before = g_allocations.load();
    c.score_window_batch(count, window_at, scores.data(), ws);
    EXPECT_EQ(g_allocations.load() - before, 0u)
        << "score_window_batch, " << count << " windows";

    const auto part = samples.first(window + stride * (count - 1));
    c.score_into(part, scores, ws);  // warm-up
    before = g_allocations.load();
    c.score_into(part, scores, ws);
    EXPECT_EQ(g_allocations.load() - before, 0u)
        << "score_into, " << count << " windows";
  }
}

/// A locator with untrained weights, marked ready to serve. Its threshold
/// is one no score reaches: no detections, so the segmenter's work (and
/// its allocations) does not depend on the weights.
CoLocator serving_stub(const CnnConfig& cnn) {
  LocatorConfig config;
  config.cnn = cnn;
  config.params.threshold = 1e30f;
  CoLocator locator(config);
  CoLocator::CalibrationState state;
  state.mean_co_length = 1000.0;
  locator.restore_calibration(state);
  return locator;
}

/// What compiling the locator's plan costs: a path that recompiled it
/// would allocate at least this much.
std::size_t plan_compile_allocations(const CoLocator& locator) {
  const std::size_t before = g_allocations.load();
  {
    const SlidingWindowClassifier c(locator.model(),
                                    locator.config().params.n_inf,
                                    locator.config().params.stride);
  }
  return g_allocations.load() - before;
}

TEST_P(AllocFreeScoringConfigs, LocateDoesNotRecompileThePlan) {
#if defined(SCALOCATE_TEST_SANITIZED)
  GTEST_SKIP() << kSanitized;
#endif
  const CoLocator locator = serving_stub(GetParam());
  const std::size_t window = locator.config().params.n_inf;
  const std::size_t stride = locator.config().params.stride;
  const auto trace = random_trace(window + stride * 255, 43);
  const std::span<const float> samples(trace);

  nn::kernels::IntraOpGuard one_thread(1);
  constexpr std::size_t kLocateBudget = 16;  // results + segmenter state
  ASSERT_GT(plan_compile_allocations(locator), kLocateBudget);

  nn::Workspace ws;
  for (const std::size_t count : {1u, 33u, 256u}) {
    const auto part = samples.first(window + stride * (count - 1));
    locator.locate(part, ws);  // warm-up
    const std::size_t before = g_allocations.load();
    EXPECT_TRUE(locator.locate(part, ws).empty());
    EXPECT_LE(g_allocations.load() - before, kLocateBudget)
        << "locate, " << count << " windows";
  }
}

TEST_P(AllocFreeScoringConfigs, OpeningAStreamDoesNotCompileAPlan) {
#if defined(SCALOCATE_TEST_SANITIZED)
  GTEST_SKIP() << kSanitized;
#endif
  // Streams score through the locator's one compiled classifier, so
  // opening one allocates only its own segmenter, ring and handles.
  const CoLocator locator = serving_stub(GetParam());
  constexpr std::size_t kOpenBudget = 24;
  ASSERT_GT(plan_compile_allocations(locator), kOpenBudget);

  { const runtime::StreamingLocator warm(locator); }
  std::size_t before = g_allocations.load();
  { const runtime::StreamingLocator stream(locator); }
  EXPECT_LE(g_allocations.load() - before, kOpenBudget) << "StreamingLocator";

  runtime::EngineConfig config;
  config.max_batch_windows = 32;
  runtime::ThreadPool pool(1);
  runtime::WindowBatcher batcher(locator, pool, config);
  const auto warm = batcher.open_stream();
  before = g_allocations.load();
  const auto stream = batcher.open_stream();
  EXPECT_LE(g_allocations.load() - before, kOpenBudget)
      << "batched open_stream";
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigs, AllocFreeScoringConfigs,
    ::testing::Values(CnnConfig::paper(), CnnConfig::scaled()),
    [](const ::testing::TestParamInfo<CnnConfig>& config) {
      return "kernel" + std::to_string(config.param.kernel_size);
    });

}  // namespace
}  // namespace scalocate::core

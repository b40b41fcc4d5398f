// Tests for the Segmentation stage (Section III-D) and the metrics. The
// incremental core::Segmenter is checked against a whole-trace reference
// implementation on randomized inputs fed in random chunk splits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/signal.hpp"
#include "core/locator.hpp"
#include "core/metrics.hpp"
#include "core/segmentation.hpp"

namespace scalocate::core {
namespace {

// ---------------------------------------------------------------------------
// Reference implementation: the whole-trace segmentation the incremental
// Segmenter must reproduce. Square wave -> median filter (shrinking border
// windows) -> edge scan with plateau-split merging -> offset correction and
// template snap -> sort -> dedup, each step over the complete trace.
// ---------------------------------------------------------------------------

struct Case {
  std::vector<float> scores;
  float threshold = 0.0f;
  std::size_t k = 1;
  std::size_t merge_gap = 0;
  std::size_t stride = 1;
  std::size_t min_gap = 0;

  SegmenterConfig config() const {
    SegmenterConfig cfg;
    cfg.threshold = threshold;
    cfg.median_filter_k = k;
    cfg.merge_gap_windows = merge_gap;
    return cfg;
  }
};

std::vector<std::size_t> oracle_raw_edges(const Case& c) {
  const auto filtered = signal::median_filter(
      signal::threshold_square_wave(c.scores, c.threshold), c.k);
  std::vector<std::size_t> edges;
  if (!filtered.empty() && filtered.front() > 0.0f) edges.push_back(0);
  std::size_t last_fall = 0;
  bool have_fall = false;
  for (std::size_t i = 1; i < filtered.size(); ++i) {
    const float prev = filtered[i - 1];
    const float cur = filtered[i];
    if (prev >= 0.0f && cur < 0.0f) {
      last_fall = i;
      have_fall = true;
    } else if (prev < 0.0f && cur >= 0.0f) {
      if (have_fall && i - last_fall <= c.merge_gap) continue;
      edges.push_back(i * c.stride);
    }
  }
  return edges;
}

std::vector<std::size_t> oracle_dedup(std::vector<std::size_t> starts,
                                      std::size_t min_gap) {
  std::sort(starts.begin(), starts.end());
  std::vector<std::size_t> kept;
  for (std::size_t s : starts)
    if (kept.empty() || s >= kept.back() + min_gap) kept.push_back(s);
  return kept;
}

/// The offline correction of one raw edge: coarse offset, template snap
/// within the radius (clamped to the trace), fine residual.
std::size_t oracle_correct(const CoLocator& loc, std::span<const float> trace,
                           std::size_t raw) {
  const auto clamp0 = [](std::int64_t v) {
    return v < 0 ? std::size_t{0} : static_cast<std::size_t>(v);
  };
  std::size_t start =
      clamp0(static_cast<std::int64_t>(raw) - loc.coarse_offset());
  if (!loc.config().fine_align) return start;
  const std::size_t len = loc.fine_template().size();
  const auto radius = static_cast<std::int64_t>(loc.fine_search_radius());
  const std::int64_t lo =
      std::max<std::int64_t>(0, static_cast<std::int64_t>(start) - radius);
  const std::int64_t hi = std::min<std::int64_t>(
      static_cast<std::int64_t>(trace.size()) - static_cast<std::int64_t>(len),
      static_cast<std::int64_t>(start) + radius);
  if (hi >= lo)
    start = loc.refine_in_region(
        trace.subspan(static_cast<std::size_t>(lo),
                      static_cast<std::size_t>(hi - lo) + len),
        static_cast<std::size_t>(lo));
  return clamp0(static_cast<std::int64_t>(start) - loc.fine_offset());
}

// ---------------------------------------------------------------------------
// The incremental machine, fed in arbitrary chunks.
// ---------------------------------------------------------------------------

/// Pushes `c.scores` in chunks of the sizes `next_chunk` returns, growing a
/// stream of `trace` samples behind them (window `window`) and trimming it
/// the way the streaming runtime trims its ring, then finishes. Reading a
/// trimmed sample throws.
template <typename NextChunk>
std::vector<Detection> run_machine(const Case& c, const CoLocator* aligner,
                                   std::span<const float> trace,
                                   std::size_t window, NextChunk next_chunk) {
  Segmenter seg(c.config(), c.stride, c.min_gap, aligner);
  std::vector<Detection> out;
  std::size_t pos = 0, head = 0, keep = 0;
  const auto view = [&] { return trace.subspan(keep, head - keep); };
  while (pos < c.scores.size()) {
    const std::size_t n = std::min(next_chunk(), c.scores.size() - pos);
    const std::size_t scored = pos + n;
    if (scored > 0)
      head = std::max(head, std::min(trace.size(),
                                     (scored - 1) * c.stride + window));
    seg.push(std::span<const float>(c.scores).subspan(pos, n), view(), keep,
             out);
    pos = scored;
    keep = std::max(keep, std::min({scored * c.stride, seg.oldest_needed(),
                                    head}));
  }
  head = trace.size();
  seg.finish(view(), keep, out);
  EXPECT_EQ(seg.windows(), c.scores.size());
  return out;
}

/// Runs `c` one chunk, one score per push and in random chunks (including
/// empty pushes), and checks each against `expected`.
void expect_all_chunkings(const Case& c, const CoLocator* aligner,
                          std::span<const float> trace, std::size_t window,
                          const std::vector<std::size_t>& expected,
                          Rng& rng) {
  const std::size_t n = c.scores.size();
  const auto starts = [](const std::vector<Detection>& ds) {
    std::vector<std::size_t> out;
    out.reserve(ds.size());
    for (const auto& d : ds) out.push_back(d.start);
    return out;
  };
  const auto whole = run_machine(c, aligner, trace, window,
                                 [&] { return std::max<std::size_t>(n, 1); });
  EXPECT_EQ(starts(whole), expected) << "one push";
  EXPECT_EQ(starts(run_machine(c, aligner, trace, window,
                               [] { return std::size_t{1}; })),
            expected)
      << "one score per push";
  const auto max_chunk = static_cast<std::int64_t>(n / 3 + 2);
  EXPECT_EQ(starts(run_machine(c, aligner, trace, window,
                               [&] {
                                 return static_cast<std::size_t>(
                                     rng.uniform_int(0, max_chunk));
                               })),
            expected)
      << "random chunks";
  if (aligner == nullptr) {
    for (const auto& d : whole) EXPECT_EQ(d.start, d.raw_edge);
  }
}

/// Checks the machine against the oracle for a case without an aligner and
/// returns the oracle's starts.
std::vector<std::size_t> check_case(const Case& c, Rng& rng) {
  const auto expected = oracle_dedup(oracle_raw_edges(c), c.min_gap);
  expect_all_chunkings(c, nullptr, {}, 0, expected, rng);
  return expected;
}

/// Scores with plateau structure: alternating low/high runs, glitches and
/// values near the threshold.
std::vector<float> random_scores(Rng& rng, std::size_t n) {
  std::vector<float> scores(n);
  bool high = rng.bernoulli(0.3);
  std::size_t run = 0;
  for (float& s : scores) {
    if (run == 0) {
      high = !high;
      run = static_cast<std::size_t>(rng.uniform_int(1, 24));
    }
    --run;
    s = static_cast<float>((high ? 1.0 : -1.0) * rng.uniform(0.0, 4.0));
    if (rng.bernoulli(0.08)) s = -s;  // glitch
  }
  return scores;
}

Case random_case(Rng& rng) {
  Case c;
  c.scores =
      random_scores(rng, static_cast<std::size_t>(rng.uniform_int(0, 400)));
  c.threshold = rng.bernoulli(0.5) ? 0.0f
                                   : static_cast<float>(rng.uniform(-1.0, 1.0));
  c.k = static_cast<std::size_t>(2 * rng.uniform_int(0, 7) + 1);
  c.merge_gap = static_cast<std::size_t>(rng.uniform_int(0, 4));
  c.stride = static_cast<std::size_t>(rng.uniform_int(1, 64));
  const auto max_gap = static_cast<std::int64_t>(40 * c.stride);
  c.min_gap = rng.bernoulli(0.5)
                  ? 0
                  : static_cast<std::size_t>(rng.uniform_int(1, max_gap));
  return c;
}

TEST(Segmenter, RandomizedMatchesWholeTraceOracle) {
  std::size_t detections = 0;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    Rng rng(seed);
    const Case c = random_case(rng);
    SCOPED_TRACE("seed " + std::to_string(seed));
    detections += check_case(c, rng).size();
  }
  // The comparison only counts if the cases actually produce detections.
  EXPECT_GT(detections, 3000u);
}

TEST(Segmenter, RandomizedAlignedMatchesWholeTraceOracle) {
  // Offsets, template snap and release horizon against the offline
  // correction loop, with the sample stream trimmed at oldest_needed().
  std::size_t detections = 0;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    Rng rng(1000 + seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Case c = random_case(rng);
    LocatorConfig lc;
    lc.fine_align = rng.bernoulli(0.8);
    lc.fine_search_radius = static_cast<std::size_t>(rng.uniform_int(1, 120));
    CoLocator loc(lc);
    CoLocator::CalibrationState state;
    state.coarse_offset = rng.uniform_int(-100, 300);
    state.fine_offset = rng.uniform_int(-50, 50);
    state.fine_template.resize(
        static_cast<std::size_t>(rng.uniform_int(4, 40)));
    for (float& v : state.fine_template) v = static_cast<float>(rng.normal());
    loc.restore_calibration(std::move(state));

    const auto window = static_cast<std::size_t>(rng.uniform_int(8, 128));
    const std::size_t span =
        c.scores.empty() ? 0 : (c.scores.size() - 1) * c.stride + window;
    std::vector<float> trace(
        span + static_cast<std::size_t>(rng.uniform_int(0, 200)));
    for (float& v : trace) v = static_cast<float>(rng.normal());

    const auto raw_edges = oracle_raw_edges(c);
    std::vector<std::size_t> corrected;
    corrected.reserve(raw_edges.size());
    for (std::size_t raw : raw_edges)
      corrected.push_back(oracle_correct(loc, trace, raw));
    const auto expected = oracle_dedup(corrected, c.min_gap);
    expect_all_chunkings(c, &loc, trace, window, expected, rng);
    detections += expected.size();
  }
  EXPECT_GT(detections, 700u);
}

// Hand-picked shapes (each also checked against the oracle in every
// chunking).

TEST(Segmenter, LocatesPlateauRisingEdges) {
  // Background -3, two 6-window plateaus at indices 10 and 30.
  Rng rng(1);
  Case c;
  c.scores.assign(48, -3.f);
  for (int i = 10; i < 16; ++i) c.scores[static_cast<std::size_t>(i)] = 3.f;
  for (int i = 30; i < 36; ++i) c.scores[static_cast<std::size_t>(i)] = 3.f;
  c.k = 3;
  c.stride = 100;
  EXPECT_EQ(check_case(c, rng), (std::vector<std::size_t>{1000, 3000}));
  EXPECT_EQ(Segmenter(c.config(), c.stride).median_k(), 3u);
}

TEST(Segmenter, MedianFilterRemovesGlitches) {
  Rng rng(2);
  Case c;
  c.scores.assign(40, -3.f);
  c.scores[5] = 3.f;  // single-window glitch
  for (int i = 20; i < 28; ++i) c.scores[static_cast<std::size_t>(i)] = 3.f;
  c.k = 3;
  c.stride = 10;
  EXPECT_EQ(check_case(c, rng), (std::vector<std::size_t>{200}));
}

TEST(Segmenter, PlateauAtStartIsReported) {
  Rng rng(3);
  Case c;
  c.scores.assign(20, -3.f);
  for (int i = 0; i < 6; ++i) c.scores[static_cast<std::size_t>(i)] = 3.f;
  c.k = 3;
  c.stride = 10;
  EXPECT_EQ(check_case(c, rng), (std::vector<std::size_t>{0}));
}

TEST(Segmenter, PlateauAtEndIsReportedThroughShrinkingBorder) {
  // The last plateau is only 2 windows long: the full 5-window median
  // would erase it, the shrinking end-of-trace border keeps it.
  Rng rng(4);
  Case c;
  c.scores.assign(20, -3.f);
  c.scores[18] = c.scores[19] = 3.f;
  c.k = 5;
  c.stride = 10;
  EXPECT_EQ(check_case(c, rng), (std::vector<std::size_t>{180}));
}

TEST(Segmenter, EmptyInputYieldsNothing) {
  Rng rng(5);
  Case c;
  c.stride = 10;
  EXPECT_TRUE(check_case(c, rng).empty());
}
TEST(Segmenter, AutoMedianKIsOddAndClamped) {
  EXPECT_EQ(Segmenter::auto_median_k(1), 3u);
  EXPECT_EQ(Segmenter::auto_median_k(8), 5u);
  EXPECT_EQ(Segmenter::auto_median_k(100), 11u);
  for (std::size_t p : {1u, 2u, 5u, 9u, 33u})
    EXPECT_EQ(Segmenter::auto_median_k(p) % 2, 1u);
}

TEST(Segmenter, OtsuSeparatesBimodalScores) {
  std::vector<float> scores;
  for (int i = 0; i < 100; ++i)
    scores.push_back(-5.f + 0.01f * static_cast<float>(i));
  for (int i = 0; i < 100; ++i)
    scores.push_back(5.f + 0.01f * static_cast<float>(i));
  const float th = Segmenter::otsu_threshold(scores);
  EXPECT_GT(th, -4.2f);
  EXPECT_LT(th, 5.0f);
}

TEST(Segmenter, AutoThresholdViaNaN) {
  // An automatic (NaN) threshold resolves to Otsu over the trace's scores
  // when they are given, else to the calibrated threshold; an explicit or
  // configured threshold wins over both.
  Rng rng(6);
  Case c;
  c.scores.assign(30, -4.f);
  for (int i = 10; i < 20; ++i) c.scores[static_cast<std::size_t>(i)] = 4.f;
  c.k = 3;
  c.stride = 10;
  LocatorConfig lc;
  lc.params.stride = c.stride;
  CoLocator loc(lc);
  CoLocator::CalibrationState state;
  state.calibrated_threshold = 1.5f;
  loc.restore_calibration(std::move(state));
  const float nan = std::numeric_limits<float>::quiet_NaN();

  c.threshold = loc.segmenter_config(nan, c.scores).threshold;
  EXPECT_EQ(c.threshold, Segmenter::otsu_threshold(c.scores));
  EXPECT_GT(c.threshold, -4.0f);
  EXPECT_LT(c.threshold, 4.0f);
  EXPECT_EQ(check_case(c, rng), (std::vector<std::size_t>{100}));
  EXPECT_EQ(loc.segmenter(nan, c.scores).threshold(), c.threshold);

  EXPECT_EQ(loc.segmenter_config(nan).threshold, 1.5f);
  EXPECT_EQ(loc.segmenter_config(-2.0f, c.scores).threshold, -2.0f);
  lc.params.threshold = 0.25f;
  const CoLocator fixed(lc);
  EXPECT_EQ(fixed.segmenter_config(nan, c.scores).threshold, 0.25f);

  lc.params.threshold = nan;
  const CoLocator uncalibrated(lc);
  EXPECT_TRUE(std::isnan(uncalibrated.segmenter_config().threshold));
  EXPECT_THROW(uncalibrated.segmenter(), Error);
}

TEST(Segmenter, MergeGapBridgesShortPlateauSplits) {
  // Plateau 10..16, two-window dip, plateau 18..24 — the shape interrupt
  // preemption / gain steps leave behind.
  Rng rng(7);
  Case c;
  c.scores.assign(40, -3.f);
  for (int i = 10; i < 16; ++i) c.scores[static_cast<std::size_t>(i)] = 3.f;
  for (int i = 18; i < 24; ++i) c.scores[static_cast<std::size_t>(i)] = 3.f;
  c.k = 1;  // identity filter: the dip reaches the scan
  c.stride = 10;
  EXPECT_EQ(check_case(c, rng), (std::vector<std::size_t>{100, 180}));

  c.merge_gap = 2;
  EXPECT_EQ(check_case(c, rng), (std::vector<std::size_t>{100}));
}

TEST(Segmenter, MergeGapKeepsGenuinelySeparatePlateaus) {
  Rng rng(8);
  Case c;
  c.scores.assign(40, -3.f);
  for (int i = 5; i < 11; ++i) c.scores[static_cast<std::size_t>(i)] = 3.f;
  for (int i = 20; i < 26; ++i) c.scores[static_cast<std::size_t>(i)] = 3.f;
  c.k = 1;
  c.stride = 10;
  c.merge_gap = 2;  // gap of 9 windows stays a real separation
  EXPECT_EQ(check_case(c, rng), (std::vector<std::size_t>{50, 200}));
}

TEST(Segmenter, MergeGapBridgesDipAfterFrontPlateau) {
  Rng rng(9);
  Case c;
  c.scores.assign(20, -3.f);
  for (int i = 0; i < 4; ++i) c.scores[static_cast<std::size_t>(i)] = 3.f;
  for (int i = 6; i < 10; ++i) c.scores[static_cast<std::size_t>(i)] = 3.f;
  c.k = 1;
  c.stride = 10;
  c.merge_gap = 2;
  // The window-0 plateau and its resumption are one CO at sample 0.
  EXPECT_EQ(check_case(c, rng), (std::vector<std::size_t>{0}));
}

TEST(Segmenter, DedupKeepsTheEarlierOfCloseStarts) {
  Rng rng(10);
  Case c;
  c.scores.assign(40, -3.f);
  for (int i = 5; i < 8; ++i) c.scores[static_cast<std::size_t>(i)] = 3.f;
  for (int i = 12; i < 15; ++i) c.scores[static_cast<std::size_t>(i)] = 3.f;
  for (int i = 30; i < 33; ++i) c.scores[static_cast<std::size_t>(i)] = 3.f;
  c.k = 1;
  c.stride = 10;
  EXPECT_EQ(check_case(c, rng), (std::vector<std::size_t>{50, 120, 300}));
  c.min_gap = 100;  // 120 is an echo of 50; 300 is a new CO
  EXPECT_EQ(check_case(c, rng), (std::vector<std::size_t>{50, 300}));
}

TEST(Segmenter, OtsuClippedRangeShrugsOffOutliers) {
  // Bimodal mass at -5 and +5 with AGC-style outlier spikes: the unclipped
  // histogram squashes the real modes into a couple of bins.
  std::vector<float> scores;
  for (int i = 0; i < 100; ++i)
    scores.push_back(-5.f + 0.01f * static_cast<float>(i));
  for (int i = 0; i < 100; ++i)
    scores.push_back(5.f + 0.01f * static_cast<float>(i));
  scores.push_back(1000.f);
  scores.push_back(-1000.f);
  const float clipped = Segmenter::otsu_threshold(scores, 2.0);
  EXPECT_GT(clipped, -5.0f);
  EXPECT_LT(clipped, 5.1f);
  // Zero clip is exactly the legacy overload.
  EXPECT_EQ(Segmenter::otsu_threshold(scores, 0.0),
            Segmenter::otsu_threshold(scores));
  EXPECT_THROW(Segmenter::otsu_threshold(scores, 50.0), Error);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(ConfusionMatrix, RatesAndAccuracy) {
  ConfusionMatrix cm;
  for (int i = 0; i < 90; ++i) cm.add(0, 0);
  for (int i = 0; i < 10; ++i) cm.add(0, 1);
  for (int i = 0; i < 30; ++i) cm.add(1, 1);
  for (int i = 0; i < 10; ++i) cm.add(1, 0);
  EXPECT_DOUBLE_EQ(cm.rate(0, 0), 0.9);
  EXPECT_DOUBLE_EQ(cm.rate(1, 1), 0.75);
  EXPECT_DOUBLE_EQ(cm.true_negative_rate(), 0.9);
  EXPECT_DOUBLE_EQ(cm.true_positive_rate(), 0.75);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 120.0 / 140.0);
  EXPECT_EQ(cm.total(), 140u);
}

TEST(ConfusionMatrix, EmptyRatesAreZero) {
  ConfusionMatrix cm;
  EXPECT_DOUBLE_EQ(cm.rate(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.0);
}

TEST(ConfusionMatrix, RenderContainsPercentages) {
  ConfusionMatrix cm;
  cm.add(0, 0);
  cm.add(1, 1);
  const auto s = cm.render("AES");
  EXPECT_NE(s.find("AES"), std::string::npos);
  EXPECT_NE(s.find("100.00%"), std::string::npos);
}

TEST(ConfusionMatrix, InvalidLabelThrows) {
  ConfusionMatrix cm;
  EXPECT_THROW(cm.add(2, 0), Error);
}

TEST(HitScore, ExactMatches) {
  const auto s = score_hits({100, 200, 300}, {100, 200, 300}, 10);
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.false_alarms, 0u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 1.0);
  EXPECT_DOUBLE_EQ(s.mean_abs_error, 0.0);
}

TEST(HitScore, ToleranceWindow) {
  const auto s = score_hits({105, 250}, {100, 200}, 10);
  EXPECT_EQ(s.hits, 1u);           // 105 matches 100; 250 too far from 200
  EXPECT_EQ(s.false_alarms, 1u);
  EXPECT_DOUBLE_EQ(s.mean_abs_error, 5.0);
}

TEST(HitScore, EachDetectionMatchesOnce) {
  // One detection cannot satisfy two true starts.
  const auto s = score_hits({100}, {95, 105}, 20);
  EXPECT_EQ(s.hits, 1u);
}

TEST(HitScore, MissedAndEmpty) {
  const auto s = score_hits({}, {100, 200}, 10);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.0);
  const auto t = score_hits({5}, {}, 10);
  EXPECT_EQ(t.false_alarms, 1u);
  EXPECT_DOUBLE_EQ(t.hit_rate(), 0.0);
}

TEST(HitScore, NearestDetectionWins) {
  const auto s = score_hits({98, 110}, {100}, 20);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_DOUBLE_EQ(s.mean_abs_error, 2.0);  // 98 is closer than 110
  EXPECT_EQ(s.false_alarms, 1u);
}

}  // namespace
}  // namespace scalocate::core

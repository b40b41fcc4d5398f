// Ablation studies over the design choices DESIGN.md calls out:
//   (a) sliding stride s vs hit rate and runtime (Section III-C knob);
//   (b) segmentation: median filter size and threshold choice (§III-D);
//   (c) inference window size Ninf != Ntrain (the GAP property, Sec. IV-B);
//   (d) the fine-alignment refinement stage (our addition).
//
// One CNN is trained once (AES, RD-2, consecutive-CO evaluation) and reused
// across all sweeps. Sweeps (a)-(c) isolate the swept parameter from the
// calibration stage by applying an *oracle* constant-offset correction (the
// median signed error against ground truth); the full trained pipeline
// including its own two-stage calibration is what (d) and bench_hits
// measure.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "common/table.hpp"

using namespace scalocate;

namespace {

/// Applies the best constant offset (median signed error) before scoring,
/// isolating detection quality from calibration quality.
core::HitScore oracle_hits(std::vector<std::size_t> detections,
                           const std::vector<std::size_t>& truth,
                           std::size_t tolerance, double co_length) {
  std::vector<std::ptrdiff_t> offsets;
  const auto half_co = static_cast<std::ptrdiff_t>(co_length / 2.0);
  for (std::size_t t : truth) {
    std::ptrdiff_t best = half_co + 1;
    for (std::size_t d : detections) {
      const auto delta =
          static_cast<std::ptrdiff_t>(d) - static_cast<std::ptrdiff_t>(t);
      if (std::abs(delta) < std::abs(best)) best = delta;
    }
    if (std::abs(best) <= half_co) offsets.push_back(best);
  }
  if (!offsets.empty()) {
    std::nth_element(
        offsets.begin(),
        offsets.begin() + static_cast<std::ptrdiff_t>(offsets.size() / 2),
        offsets.end());
    const std::ptrdiff_t median = offsets[offsets.size() / 2];
    for (auto& d : detections) {
      const auto corrected = static_cast<std::ptrdiff_t>(d) - median;
      d = corrected < 0 ? 0 : static_cast<std::size_t>(corrected);
    }
  }
  return core::score_hits(detections, truth, tolerance);
}

}  // namespace

int main() {
  std::printf("=== Ablations (AES-128, RD-2, consecutive COs) ===\n\n");
  bench::Timer total;
  auto setup = bench::train_locator(crypto::CipherId::kAes128,
                                    trace::RandomDelayConfig::kRd2, 0xab1a7e);
  auto& locator = setup.locator;
  const auto base_params = locator.config().params;
  const std::size_t n_cos = bench::scaled(16);
  auto eval =
      trace::acquire_eval_trace(setup.scenario, n_cos, setup.key, false);
  const auto truth = eval.co_starts();
  const auto tol = base_params.n_inf;
  const double co_len = locator.mean_co_length();

  const auto run_pipeline = [&](std::size_t n_inf, std::size_t stride,
                                std::size_t median_k, float threshold) {
    core::SlidingWindowClassifier cls(locator.model(), n_inf, stride);
    nn::Workspace ws;
    const auto swc = cls.classify(eval.samples, ws);
    core::SegmenterConfig seg_cfg;
    seg_cfg.threshold = threshold;
    seg_cfg.median_filter_k = median_k;
    seg_cfg.window_size = n_inf;
    seg_cfg.expected_co_length = static_cast<std::size_t>(co_len);
    if (std::isnan(seg_cfg.threshold) && !swc.scores.empty())
      seg_cfg.threshold = core::Segmenter::otsu_threshold(swc.scores);
    // No aligner: every detection sits at its raw rising edge.
    core::Segmenter seg(seg_cfg, stride);
    std::vector<core::Detection> found;
    seg.push(swc.scores, eval.samples, 0, found);
    seg.finish(eval.samples, 0, found);
    std::vector<std::size_t> edges;
    edges.reserve(found.size());
    for (const auto& d : found) edges.push_back(d.raw_edge);
    return edges;
  };

  // --- (a) stride sweep -----------------------------------------------------
  {
    std::printf("--- (a) stride s vs hits / throughput (oracle offset) ---\n");
    TextTable table({"s", "windows", "hits", "mean err", "classify s"});
    for (std::size_t s : {24u, 48u, 96u, 192u}) {
      bench::Timer t;
      const auto edges =
          run_pipeline(base_params.n_inf, s, 0, base_params.threshold);
      const double secs = t.seconds();
      const auto score = oracle_hits(edges, truth, tol, co_len);
      table.add_row({std::to_string(s),
                     std::to_string((eval.samples.size() - base_params.n_inf) / s + 1),
                     format_percent(score.hit_rate(), 1),
                     format_fixed(score.mean_abs_error, 1),
                     format_fixed(secs, 1)});
    }
    std::printf("%s\n", table.render().c_str());
  }

  // --- (b) median filter / threshold -----------------------------------------
  {
    std::printf("--- (b) segmentation: median k and threshold (oracle offset) ---\n");
    TextTable table({"median k", "threshold", "hits", "mean err", "#detections"});
    for (std::size_t k : {1u, 3u, 7u, 11u, 15u}) {
      const auto edges =
          run_pipeline(base_params.n_inf, base_params.stride, k,
                       base_params.threshold);
      const auto score = oracle_hits(edges, truth, tol, co_len);
      table.add_row({std::to_string(k), "0 (margin)",
                     format_percent(score.hit_rate(), 1),
                     format_fixed(score.mean_abs_error, 1),
                     std::to_string(edges.size())});
    }
    {
      const auto edges =
          run_pipeline(base_params.n_inf, base_params.stride, 0,
                       std::numeric_limits<float>::quiet_NaN());
      const auto score = oracle_hits(edges, truth, tol, co_len);
      table.add_row({"auto", "Otsu", format_percent(score.hit_rate(), 1),
                     format_fixed(score.mean_abs_error, 1),
                     std::to_string(edges.size())});
    }
    std::printf("%s\n", table.render().c_str());
  }

  // --- (c) inference window size ---------------------------------------------
  {
    std::printf("--- (c) Ninf sweep (Ntrain = %zu; GAP enables Ninf != Ntrain, "
                "oracle offset) ---\n",
                base_params.n_train);
    TextTable table({"Ninf", "hits", "mean err"});
    for (std::size_t n_inf : {128u, 192u, 256u, 320u}) {
      const auto edges =
          run_pipeline(n_inf, base_params.stride, 0, base_params.threshold);
      const auto score = oracle_hits(edges, truth, n_inf, co_len);
      table.add_row({std::to_string(n_inf),
                     format_percent(score.hit_rate(), 1),
                     format_fixed(score.mean_abs_error, 1)});
    }
    std::printf("%s\n", table.render().c_str());
  }

  // --- (d) fine alignment: the full trained pipeline --------------------------
  {
    std::printf("--- (d) full pipeline: fine alignment on vs off ---\n");
    TextTable table({"fine align", "hits", "mean err (samples)"});
    {
      const auto located = locator.locate(eval.samples);
      const auto s = core::score_hits(located, truth, tol);
      table.add_row({"on (trained calibration)",
                     format_percent(s.hit_rate(), 1),
                     format_fixed(s.mean_abs_error, 1)});
    }
    {
      const auto edges = run_pipeline(base_params.n_inf, base_params.stride,
                                      0, base_params.threshold);
      const auto s = oracle_hits(edges, truth, tol, co_len);
      table.add_row({"off (oracle offset only)",
                     format_percent(s.hit_rate(), 1),
                     format_fixed(s.mean_abs_error, 1)});
    }
    std::printf("%s\n", table.render().c_str());
  }

  std::printf("total: %.0fs\n", total.seconds());
  return 0;
}

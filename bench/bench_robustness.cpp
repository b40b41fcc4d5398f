// Robustness matrix: every ScenarioSuite capture condition crossed with two
// cipher models served side by side from one multi-model Engine.
//
// Each (cipher, scenario) cell acquires a hostile evaluation capture and
// locates it twice through the same Session — the whole-trace path (the
// offline pipeline) and the chunked Stream path — then scores the
// detections against ground truth: hit rate, located/true, mean |start
// error| over hits, and false alarms. The two detection lists must be
// bit-identical in every cell, preemption-split and truncated-tail traces
// included; any mismatch fails the bench.
//
// The mixed-cipher rows exercise the Engine registry for real: the capture
// interleaves both benched ciphers, each row locates it with its own
// cipher's model, and the partner's COs are NOT counted as truth — a
// detection on them shows up in the FP column as cross-cipher confusion.
//
// Env:
//   SCALOCATE_SCALE      workload scale (COs per capture, training sizes)
//   SCALOCATE_EPOCHS     training epochs (default 10)
//   SCALOCATE_HIT_FLOOR  minimum acceptable AGGREGATE hit rate (total hits
//                        over total true COs across every cell), as a
//                        fraction (e.g. 0.40). Unset or 0: report only.
//                        Aggregate, not per-cell min: single cells sit on
//                        3-CO captures at smoke scale, where one borderline
//                        CO flips a cell between 0% and 33%.
//   SCALOCATE_MERGE_GAP  overrides the benched merge_gap_windows (ablation
//                        knob; default 6).
//
// Exit status: 1 on any streaming/offline parity mismatch, 2 when the
// aggregate hit rate falls below SCALOCATE_HIT_FLOOR.
//
// Machine-readable twin: the full matrix (per-cell hit rates, aggregate,
// parity) is written to BENCH_robustness.json BEFORE the floor/parity exit
// checks run, so a failing run still leaves the snapshot for CI triage —
// the robustness-smoke job gates on the JSON's aggregate_hit_rate and
// parity_failures fields via bench_check rather than parsing this stdout.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "api/scalocate.hpp"
#include "bench_common.hpp"
#include "common/table.hpp"
#include "obs/registry.hpp"

using namespace scalocate;

namespace {

double hit_floor() {
  if (const char* s = std::getenv("SCALOCATE_HIT_FLOOR")) {
    const double v = std::atof(s);
    if (v > 0.0) return v;
  }
  return 0.0;
}

/// Streams the capture in `chunk`-sized pieces through a Session stream and
/// returns the detection starts in emission order.
std::vector<std::size_t> stream_starts(const api::Session& session,
                                       std::span<const float> samples,
                                       std::size_t chunk) {
  auto stream = session.open_stream();
  std::vector<std::size_t> starts;
  for (std::size_t off = 0; off < samples.size(); off += chunk) {
    const std::size_t n = std::min(chunk, samples.size() - off);
    for (const auto& d : stream.feed(samples.subspan(off, n)))
      starts.push_back(d.start);
  }
  for (const auto& d : stream.finish()) starts.push_back(d.start);
  return starts;
}

}  // namespace

int main() {
  std::printf("=== Robustness matrix: countermeasure scenarios x ciphers ===\n");
  const std::size_t n_cos = bench::scaled(12);
  const double floor = hit_floor();
  std::printf("(%zu COs per capture, tolerance = Ninf samples, floor %s)\n\n",
              n_cos, floor > 0.0 ? format_percent(floor, 0).c_str() : "off");

  // AES + Camellia: the two ciphers whose models train to usable detectors
  // at the CI smoke scale (Clefia/Simon need the full-scale budget; see
  // bench_hits for the all-cipher sweep on the benign scenarios).
  const crypto::CipherId ciphers[] = {crypto::CipherId::kAes128,
                                      crypto::CipherId::kCamellia128};

  // One trained model per cipher, with plateau-split merging on. The gap
  // must stay below the score plateau's own width (~(n_inf + CO/12)/stride
  // windows — see resolve_median_k): the SCALOCATE_MERGE_GAP ablation shows
  // gaps wider than the plateau start suppressing genuine rising edges
  // whose preceding low run is a real inter-CO separation that frayed.
  // (otsu_clip_percentile is NOT set here: the matrix runs on the fixed
  // linear-margin threshold that streaming parity requires, so the clipped
  // automatic threshold never executes in this bench; it is unit-tested in
  // test_core_segmentation.)
  // RD-2 rather than RD-4: the random-delay axis is bench_hits' job, and
  // RD-4 only trains to a usable detector at full workload scale — the
  // scenario axis measured here needs a model that detects reliably at the
  // CI smoke scale too, or every cell would just measure undertraining.
  std::vector<bench::TrainedSetup> setups;
  for (const auto id : ciphers) {
    bench::Timer t;
    setups.push_back(bench::train_locator(
        id, trace::RandomDelayConfig::kRd2,
        0x9b0'0000 + 16 * static_cast<std::uint64_t>(id), 512, 150000,
        [](core::LocatorConfig& lc) {
          lc.params.merge_gap_windows = 6;
          if (const char* s = std::getenv("SCALOCATE_MERGE_GAP"))
            lc.params.merge_gap_windows =
                static_cast<std::size_t>(std::atoi(s));
        }));
    const auto& loc = setups.back().locator;
    std::printf("trained %s: accuracy %.3f, merge gap %zu windows, "
                "expected CO %zu samples (%.0fs)\n",
                crypto::cipher_display_name(id).c_str(),
                setups.back().report.test_confusion.accuracy(),
                loc.config().params.merge_gap_windows,
                loc.segmenter_config().expected_co_length, t.seconds());
  }
  std::printf("\n");

  // One Engine serves both models; every cell goes through its Session.
  // The registry captures per-model serving metrics across the whole
  // matrix; its snapshot is embedded in BENCH_robustness.json.
  obs::Registry registry;
  api::Engine engine({.workers = 2, .registry = &registry});
  for (const auto& s : setups) engine.attach_model(s.locator);

  obs::JsonWriter json;
  json.begin_object();
  json.kv("bench", "robustness");
  json.kv("scale", bench::scale());
  json.kv("epochs", bench::bench_epochs());
  json.kv("cos_per_capture", n_cos);
  json.kv("floor", floor);
  json.key("cells").begin_array();

  TextTable table({"Cipher", "Scenario", "Hits", "Hit rate",
                   "MeanErr(samples)", "FalseAlarms", "Stream parity"});
  double min_hit_rate = 1.0;
  std::size_t total_hits = 0;
  std::size_t total_true = 0;
  std::size_t parity_failures = 0;
  std::size_t rows = 0;

  bench::Timer total;
  for (std::size_t ci = 0; ci < std::size(ciphers); ++ci) {
    const auto& setup = setups[ci];
    auto session = engine.open_session(ciphers[ci]);
    const std::size_t tol = setup.locator.config().params.n_inf;

    for (const auto& scenario : trace::ScenarioSuite::all()) {
      trace::ScenarioConfig sc = setup.scenario;
      sc.seed ^= 0x5ce'0000 + 256 * rows;
      // The mixed capture interleaves the two benched ciphers, so each
      // row's partner model genuinely exists in the engine registry.
      sc.mixed_cipher = ciphers[1 - ci];

      const auto cap =
          trace::ScenarioSuite::acquire(scenario, sc, n_cos, setup.key);
      const auto offline = session.submit_view(cap.trace.samples).get();
      const auto streamed = stream_starts(session, cap.trace.samples, 2048);
      const bool parity = streamed == offline;
      parity_failures += !parity;

      const auto truth = cap.starts_of(ciphers[ci]);
      const auto score = core::score_hits(offline, truth, tol);
      min_hit_rate = std::min(min_hit_rate, score.hit_rate());
      total_hits += score.hits;
      total_true += score.true_cos;
      ++rows;

      table.add_row({crypto::cipher_display_name(ciphers[ci]), scenario.name,
                     std::to_string(score.hits) + "/" +
                         std::to_string(score.true_cos),
                     format_percent(score.hit_rate(), 1),
                     format_fixed(score.mean_abs_error, 1),
                     std::to_string(score.false_alarms),
                     parity ? "EXACT" : "MISMATCH"});

      json.begin_object();
      json.kv("cipher", api::metric_model_name(ciphers[ci]));
      json.kv("scenario", scenario.name);
      json.kv("hits", score.hits);
      json.kv("true_cos", score.true_cos);
      json.kv("hit_rate", score.hit_rate());
      json.kv("mean_abs_error", score.mean_abs_error);
      json.kv("false_alarms", score.false_alarms);
      json.kv("stream_parity", parity);
      json.end_object();
    }
    if (ci + 1 < std::size(ciphers)) table.add_separator();
  }

  const double aggregate =
      total_true > 0
          ? static_cast<double>(total_hits) / static_cast<double>(total_true)
          : 0.0;
  std::printf("%s\n", table.render().c_str());
  std::printf("aggregate hit rate %s (%zu/%zu), min cell %s, streaming "
              "parity %zu/%zu, total %.0fs\n",
              format_percent(aggregate, 1).c_str(), total_hits, total_true,
              format_percent(min_hit_rate, 1).c_str(),
              rows - parity_failures, rows, total.seconds());

  json.end_array();
  json.kv("aggregate_hit_rate", aggregate);
  json.kv("total_hits", total_hits);
  json.kv("total_true", total_true);
  json.kv("min_cell_hit_rate", min_hit_rate);
  json.kv("parity_failures", parity_failures);
  json.kv("rows", rows);
  json.kv("total_seconds", total.seconds());
  json.key("metrics");
  registry.render_json_into(json);
  bench::write_bench_json("robustness", json);

  if (parity_failures > 0) {
    std::printf("FAIL: streaming detections diverged from offline locate\n");
    return 1;
  }
  if (floor > 0.0 && aggregate < floor) {
    std::printf("FAIL: aggregate hit rate below floor %s\n",
                format_percent(floor, 1).c_str());
    return 2;
  }
  return 0;
}

// Fleet-scale serving benchmark: N simulated streaming sessions trickling
// stride-sized chunks into a multi-cipher Engine, legacy per-session
// scoring vs the cross-session WindowBatcher.
//
// Workload shape: ONE ingest driver thread round-robins over every open
// stream, feeding one stride-sized chunk per visit — the shape of a
// network poll loop owning thousands of probe connections. On the legacy
// path that thread also pays for scoring inline (mostly one-window GEMMs:
// a stride of new samples readies at most one window); on the batched path
// it only pushes into wait-free ingest rings while the batcher coalesces
// windows across all sessions into shared max_batch_windows-row GEMMs.
// The throughput gap between those two rows is the whole point of the
// serving plane, and the "speedup_vs_legacy" field is gated in CI
// (bench/thresholds/fleet.json).
//
// Parity is the hard constraint, not a statistic: every session's
// detections — batched or legacy — must be bit-identical to the offline
// locate of the exact samples it was fed. Any divergence increments
// parity_failures (gated at zero) and the process exits nonzero.
//
// Curves emitted into BENCH_fleet.json:
//   rows[]    throughput vs session count (legacy + batched + speedup)
//   cores[]   batched throughput vs EngineConfig::workers (the pool the
//             batchers' tiles run on) at a fixed session count
// plus the p99 emission lag (samples between stream head and detection
// start at finalization) from the stream telemetry histogram, and each
// row's full registry snapshot.
//
// Knobs: SCALOCATE_SCALE scales per-session sample counts;
// SCALOCATE_FLEET_SESSIONS="64,256,1024" overrides the session-count
// sweep (default 1024,4096,10240 — sized for a workstation; CI smoke uses
// the override).
#include <cstdio>
#include <cstring>
#include <thread>

#include "api/scalocate.hpp"
#include "bench_common.hpp"
#include "obs/registry.hpp"

using namespace scalocate;

namespace {

/// Session-count sweep: env override or the full-scale default.
std::vector<std::size_t> session_counts() {
  std::vector<std::size_t> out;
  if (const char* env = std::getenv("SCALOCATE_FLEET_SESSIONS")) {
    const char* p = env;
    while (*p != '\0') {
      char* end = nullptr;
      const unsigned long v = std::strtoul(p, &end, 10);
      if (end == p) break;
      if (v > 0) out.push_back(static_cast<std::size_t>(v));
      p = (*end == ',') ? end + 1 : end;
    }
  }
  if (out.empty()) out = {1024, 4096, 10240};
  return out;
}

struct FleetModel {
  const core::CoLocator* locator = nullptr;
  crypto::CipherId cipher;
  std::size_t stride = 0;
  /// Per-session drive: a prefix of one of a few distinct eval traces.
  std::vector<std::span<const float>> drives;
  /// Offline locate() of each drive — the parity reference.
  std::vector<std::vector<std::size_t>> reference;
};

struct RunResult {
  double wall_seconds = 0.0;
  std::uint64_t samples = 0;
  std::size_t parity_failures = 0;
  double p99_lag_samples = 0.0;
  std::string metrics_json_embedded;  // unused; registry passed separately
};

/// Drives `n_sessions` streams round-robin from this thread, one
/// stride-sized chunk per visit, finishes them all, and checks parity.
RunResult drive_fleet(api::Engine& engine, const std::vector<FleetModel>& models,
                      std::size_t n_sessions) {
  struct Sim {
    api::Stream stream;
    const FleetModel* model;
    std::size_t drive;   ///< index into model->drives
    std::size_t offset = 0;
    std::vector<std::size_t> got;
  };
  std::vector<Sim> sims;
  sims.reserve(n_sessions);
  std::vector<api::Session> sessions;
  sessions.reserve(models.size());
  for (const auto& m : models) sessions.push_back(engine.open_session(m.cipher));

  for (std::size_t i = 0; i < n_sessions; ++i) {
    const std::size_t mi = i % models.size();
    const FleetModel& m = models[mi];
    sims.push_back(Sim{sessions[mi].open_stream(), &m,
                       i % m.drives.size(), 0, {}});
  }

  RunResult r;
  bench::Timer timer;
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& s : sims) {
      const std::span<const float> drive = s.model->drives[s.drive];
      if (s.offset >= drive.size()) continue;
      const std::size_t n = std::min(s.model->stride, drive.size() - s.offset);
      for (const auto& d : s.stream.feed(drive.subspan(s.offset, n)))
        s.got.push_back(d.start);
      s.offset += n;
      r.samples += n;
      progress = true;
    }
  }
  for (auto& s : sims)
    for (const auto& d : s.stream.finish()) s.got.push_back(d.start);
  r.wall_seconds = timer.seconds();

  for (auto& s : sims)
    if (s.got != s.model->reference[s.drive]) ++r.parity_failures;
  return r;
}

void row_to_json(obs::JsonWriter& json, const char* mode, std::size_t sessions,
                 const RunResult& r, obs::Registry& registry) {
  json.begin_object();
  json.kv("mode", mode);
  json.kv("sessions", sessions);
  json.kv("wall_seconds", r.wall_seconds);
  json.kv("samples", r.samples);
  json.kv("samples_per_s",
          r.wall_seconds > 0.0
              ? static_cast<double>(r.samples) / r.wall_seconds
              : 0.0);
  json.kv("parity_failures", r.parity_failures);
  json.kv("p99_emission_lag_samples", r.p99_lag_samples);
  json.key("metrics");
  registry.render_json_into(json);
  json.end_object();
}

}  // namespace

int main() {
  std::printf("== bench_fleet: cross-session dynamic batching ==\n");
  std::printf("scale=%.2f  hardware threads=%u\n\n", bench::scale(),
              std::thread::hardware_concurrency());

  // Two ciphers so every batched row exercises per-model batcher isolation
  // (windows only coalesce within a model, never across ciphers).
  bench::Timer setup_timer;
  auto aes = bench::train_locator(crypto::CipherId::kAes128,
                                  trace::RandomDelayConfig::kRd2, 0xf1ee7,
                                  /*n_captures=*/256, /*noise_instr=*/60000);
  auto camellia = bench::train_locator(crypto::CipherId::kCamellia128,
                                       trace::RandomDelayConfig::kRd2, 0xf1ee8,
                                       /*n_captures=*/128, /*noise_instr=*/60000);
  const double train_seconds = setup_timer.seconds();
  std::printf("trained 2 models in %.1f s (aes acc %.3f, camellia acc %.3f)\n",
              train_seconds, aes.report.test_confusion.accuracy(),
              camellia.report.test_confusion.accuracy());

  // Per-session drive length: enough samples for a handful of windows and
  // typically >= 1 CO. Every session replays one of a few distinct traces,
  // so offline references are computed once per (model, drive).
  const std::size_t drive_samples = bench::scaled(8192);
  const std::size_t kDistinctTraces = 3;
  std::vector<FleetModel> models(2);
  bench::TrainedSetup* setups[2] = {&aes, &camellia};
  std::vector<std::vector<float>> storage;  // keeps trace samples alive
  for (std::size_t mi = 0; mi < 2; ++mi) {
    FleetModel& m = models[mi];
    m.locator = &setups[mi]->locator;
    m.cipher = setups[mi]->scenario.cipher;
    m.stride = m.locator->config().params.stride;
    for (std::size_t t = 0; t < kDistinctTraces; ++t) {
      auto trace = trace::acquire_eval_trace(setups[mi]->scenario, 3 + t,
                                             setups[mi]->key, false);
      storage.push_back(std::move(trace.samples));
      auto& samples = storage.back();
      const std::size_t len = std::min(drive_samples, samples.size());
      m.drives.push_back(std::span<const float>(samples.data(), len));
      m.reference.push_back(
          m.locator->locate(std::span<const float>(samples.data(), len)));
    }
  }

  obs::JsonWriter json;
  json.begin_object();
  json.kv("bench", "fleet");
  json.kv("scale", bench::scale());
  json.kv("epochs", bench::bench_epochs());
  json.kv("hardware_threads",
          static_cast<std::size_t>(std::thread::hardware_concurrency()));
  json.kv("train_seconds", train_seconds);
  json.kv("drive_samples", drive_samples);

  const auto counts = session_counts();
  std::size_t parity_total = 0;

  auto p99_lag = [](obs::Registry& registry, const char* name) {
    return registry.histogram(name).snapshot().quantile(0.99);
  };

  // -- throughput vs session count: legacy (per-session scoring on the
  // ingest thread) against batched (cross-session GEMM coalescing) --------
  json.key("rows").begin_array();
  std::printf("\n%8s  %10s  %14s  %14s  %8s\n", "sessions", "mode",
              "samples/s", "wall_s", "parity");
  double largest_speedup = 0.0;
  for (const std::size_t n_sessions : counts) {
    obs::Registry legacy_reg;
    api::EngineConfig legacy_cfg;
    legacy_cfg.workers = 1;
    legacy_cfg.registry = &legacy_reg;
    api::Engine legacy(legacy_cfg);
    legacy.attach_model(aes.locator);
    legacy.attach_model(camellia.locator);
    RunResult lr = drive_fleet(legacy, models, n_sessions);
    lr.p99_lag_samples = p99_lag(legacy_reg, "stream.aes.emission_lag_samples");
    parity_total += lr.parity_failures;
    row_to_json(json, "legacy", n_sessions, lr, legacy_reg);
    std::printf("%8zu  %10s  %14.0f  %14.2f  %8zu\n", n_sessions, "legacy",
                lr.wall_seconds > 0
                    ? static_cast<double>(lr.samples) / lr.wall_seconds
                    : 0.0,
                lr.wall_seconds, lr.parity_failures);

    // Batched tiles run on the engine's pool: one worker per core.
    obs::Registry batched_reg;
    api::EngineConfig batched_cfg;
    batched_cfg.registry = &batched_reg;
    batched_cfg.max_batch_windows = 256;
    batched_cfg.batch_linger_us = 200;
    api::Engine batched(batched_cfg);
    batched.attach_model(aes.locator);
    batched.attach_model(camellia.locator);
    RunResult br = drive_fleet(batched, models, n_sessions);
    br.p99_lag_samples =
        p99_lag(batched_reg, "stream.aes.emission_lag_samples");
    parity_total += br.parity_failures;
    row_to_json(json, "batched", n_sessions, br, batched_reg);
    const double speedup =
        (lr.wall_seconds > 0 && br.wall_seconds > 0)
            ? lr.wall_seconds / br.wall_seconds
            : 0.0;
    std::printf("%8zu  %10s  %14.0f  %14.2f  %8zu  (speedup %.2fx)\n",
                n_sessions, "batched",
                br.wall_seconds > 0
                    ? static_cast<double>(br.samples) / br.wall_seconds
                    : 0.0,
                br.wall_seconds, br.parity_failures, speedup);
    largest_speedup = speedup;  // last row = largest session count
  }
  json.end_array();

  // Speedup summary per row is derivable from rows[]; the gated headline is
  // the largest-session-count ratio.
  json.kv("speedup_at_max_sessions", largest_speedup);

  // -- throughput vs pool workers at a fixed session count ---------------
  const std::size_t core_sessions = counts.front();
  json.key("cores").begin_array();
  std::printf("\ncores curve (batched, %zu sessions):\n", core_sessions);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (const std::size_t workers : {1u, 2u, 4u}) {
    if (workers > hw && workers != 1) continue;
    obs::Registry registry;
    api::EngineConfig cfg;
    cfg.workers = workers;
    cfg.registry = &registry;
    cfg.max_batch_windows = 256;
    cfg.batch_linger_us = 200;
    api::Engine engine(cfg);
    engine.attach_model(aes.locator);
    engine.attach_model(camellia.locator);
    RunResult r = drive_fleet(engine, models, core_sessions);
    r.p99_lag_samples = p99_lag(registry, "stream.aes.emission_lag_samples");
    parity_total += r.parity_failures;
    json.begin_object();
    json.kv("workers", workers);
    json.kv("sessions", core_sessions);
    json.kv("wall_seconds", r.wall_seconds);
    json.kv("samples_per_s",
            r.wall_seconds > 0.0
                ? static_cast<double>(r.samples) / r.wall_seconds
                : 0.0);
    json.kv("parity_failures", r.parity_failures);
    json.end_object();
    std::printf("  %zu worker(s): %.0f samples/s (parity %zu)\n", workers,
                r.wall_seconds > 0
                    ? static_cast<double>(r.samples) / r.wall_seconds
                    : 0.0,
                r.parity_failures);
  }
  json.end_array();

  json.kv("parity_failures", parity_total);
  bench::write_bench_json("fleet", json);

  if (parity_total > 0) {
    std::fprintf(stderr,
                 "bench_fleet: %zu session(s) diverged from offline locate\n",
                 parity_total);
    return 1;
  }
  std::printf("\nall sessions bit-identical to offline locate\n");
  return 0;
}

// perfbench: the repository benchmark.
//
//   perfbench run --workload <trace_jobs|fleet_stream>
//                 --seed <n> --seconds <s> --trace <0|1> --models <dir>
//   perfbench regen <dir>
//
// `run` generates one workload's inputs from the seed, computes the offline
// locate() reference of every input before timing, drives the workload
// against the public api::Engine facade from this one thread, checks every
// output against the reference, reconciles its own counts with the
// Engine's obs::Registry, and prints one JSON object as its last stdout
// line. --trace 0 reports the end-to-end metrics; --trace 1 times the calls
// into each layer as well and reports the per-layer metrics. NOTES.md says
// why each workload exists and which end-to-end metric each per-layer metric
// should move.
//
// `regen` retrains the two served models with fixed seeds and sizes and
// writes their artifacts (training is deterministic, so the bytes repeat).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/scalocate.hpp"
#include "core/sliding_window.hpp"
#include "nn/kernels/parallel.hpp"
#include "nn/kernels/pointwise.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "trace/scenario.hpp"

using namespace scalocate;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double ms_between(Clock::time_point a, Clock::time_point b) {
  return 1e3 * seconds_between(a, b);
}

/// splitmix64: derives independent input seeds from the workload seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double median(std::vector<double> v) {
  return v.empty() ? 0.0 : obs::percentile(std::move(v), 0.5);
}

// ---------------------------------------------------------------------------
// Models. Artifacts are checked in under perfbench/models; run.py verifies
// their checksums before this program loads them.
// ---------------------------------------------------------------------------

struct ModelRecipe {
  crypto::CipherId cipher;
  const char* file;
  std::size_t captures;
  std::size_t noise_instructions;
  std::uint64_t seed;
};

constexpr ModelRecipe kRecipes[] = {
    {crypto::CipherId::kAes128, "aes128.slocart", 1024, 300000, 0xa5e5},
    {crypto::CipherId::kCamellia128, "camellia128.slocart", 768, 200000,
     0xca3e},
};
constexpr std::size_t kTrainEpochs = 12;

crypto::Key16 key_from(std::uint64_t seed) {
  crypto::Key16 key{};
  for (std::size_t i = 0; i < key.size(); ++i)
    key[i] = static_cast<std::uint8_t>(mix(seed, 0x6b6579 + i) & 0xff);
  return key;
}

int regenerate(const std::string& dir) {
  for (const auto& r : kRecipes) {
    trace::ScenarioConfig sc;
    sc.cipher = r.cipher;
    sc.random_delay = trace::RandomDelayConfig::kRd2;
    sc.seed = r.seed;
    const auto acq = trace::acquire_cipher_traces(sc, r.captures, key_from(r.seed));
    const auto noise = trace::acquire_noise_trace(sc, r.noise_instructions);
    core::LocatorConfig lc;
    lc.params = core::PipelineParams::defaults_for(r.cipher);
    lc.params.epochs = kTrainEpochs;
    lc.seed = r.seed ^ 0x10cULL;
    core::CoLocator locator(lc);
    const auto report = locator.train(acq, noise);
    const std::string path = dir + "/" + r.file;
    api::save_artifact(locator, path);
    std::printf("wrote %s (test accuracy %.4f)\n", path.c_str(),
                report.test_confusion.accuracy());
  }
  return 0;
}

struct Model {
  crypto::CipherId cipher;
  std::string name;  ///< registry segment, e.g. "aes128"
  std::string path;
  core::CoLocator locator;  ///< the harness's own copy: references + layers
  std::size_t window = 0;
  std::size_t stride = 0;

  std::size_t windows_in(std::size_t samples) const {
    return samples < window ? 0 : (samples - window) / stride + 1;
  }
};

Model load_model(const std::string& dir, const ModelRecipe& recipe) {
  const std::string path = dir + "/" + recipe.file;
  Model m{recipe.cipher, api::metric_model_name(recipe.cipher), path,
          api::load_artifact(path)};
  m.window = m.locator.config().params.n_inf;
  m.stride = m.locator.config().params.stride;
  return m;
}

// ---------------------------------------------------------------------------
// Inputs, references and scoring.
// ---------------------------------------------------------------------------

/// One generated input: samples, ground truth, and the offline reference.
struct Input {
  const Model* model = nullptr;
  std::vector<float> samples;
  std::vector<std::size_t> truth;           ///< starts of complete COs
  std::vector<std::size_t> truth_any;       ///< starts of every CO begun
  std::vector<std::size_t> reference;       ///< offline locate()
  /// For each reference detection, the index of the chunk whose arrival
  /// made it final in a default stream fed with the workload's chunking
  /// (== number of chunks when finish() released it).
  std::vector<std::size_t> final_chunk;
  std::size_t chunk = 0;                    ///< 0 = whole-trace job

  /// Reference detections that a chunk, not finish(), makes final.
  std::size_t final_before_eof() const {
    const std::size_t chunks = (samples.size() + chunk - 1) / chunk;
    return static_cast<std::size_t>(
        std::count_if(final_chunk.begin(), final_chunk.end(),
                      [&](std::size_t k) { return k < chunks; }));
  }
};

Input make_input(const Model& model, std::size_t n_cos, bool noise_apps,
                 std::uint64_t seed, std::size_t cut = 0) {
  trace::ScenarioConfig sc;
  sc.cipher = model.cipher;
  sc.random_delay = trace::RandomDelayConfig::kRd2;
  sc.seed = seed;
  trace::Trace t = trace::acquire_eval_trace(sc, n_cos, key_from(seed), noise_apps);
  Input in;
  in.model = &model;
  in.samples = std::move(t.samples);
  if (cut > 0) {
    if (in.samples.size() < cut)
      throw std::runtime_error("generated trace shorter than the cut");
    in.samples.resize(cut);
  }
  for (const auto& co : t.cos) {
    if (co.start_sample >= in.samples.size()) continue;
    in.truth_any.push_back(co.start_sample);
    if (co.end_sample <= in.samples.size()) in.truth.push_back(co.start_sample);
  }
  return in;
}

/// Offline reference and, for chunked workloads, the finalizing chunk of
/// each detection, from a replay through a default (unbatched) stream.
/// Inputs are independent, so they are spread over hardware threads.
void compute_references(std::vector<Input>& pool) {
  api::Engine replay;
  for (const auto& in : pool)
    if (in.chunk > 0 && !replay.has_model(in.model->cipher))
      replay.load_artifact(in.model->path);
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(pool.size());
  const auto work = [&] {
    for (std::size_t i = next++; i < pool.size(); i = next++) {
      try {
        Input& in = pool[i];
        in.reference = in.model->locator.locate(in.samples);
        if (in.chunk == 0) continue;
        auto stream = replay.open_session(in.model->cipher).open_stream();
        const std::span<const float> all(in.samples);
        std::vector<std::size_t> got;
        std::size_t k = 0;
        for (std::size_t off = 0; off < all.size(); off += in.chunk, ++k)
          for (const auto& d :
               stream.feed(all.subspan(off, std::min(in.chunk, all.size() - off)))) {
            got.push_back(d.start);
            in.final_chunk.push_back(k);
          }
        for (const auto& d : stream.finish()) {
          got.push_back(d.start);
          in.final_chunk.push_back(k);
        }
        if (got != in.reference)
          throw std::runtime_error("default stream diverged from offline locate");
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> threads;
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned t = 0; t < n; ++t) threads.emplace_back(work);
  for (auto& t : threads) t.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

/// Detection quality against ground truth (a match is within n_inf samples).
/// It is scored on a fixed corpus per served model, the same for every seed:
/// a run's own inputs hold too few distinct COs for a share that is steady
/// across seeds, and a fixed corpus makes the shares a deterministic guard
/// on the pipeline's numerics.
struct Quality {
  std::size_t truth = 0, hits = 0, detections = 0, true_detections = 0;

  void add(const Input& in, const std::vector<std::size_t>& detections_of) {
    const auto near = [&](std::size_t a, std::size_t b) {
      return (a > b ? a - b : b - a) <= in.model->window;
    };
    truth += in.truth.size();
    for (std::size_t t : in.truth)
      hits += std::any_of(detections_of.begin(), detections_of.end(),
                          [&](std::size_t d) { return near(d, t); });
    detections += detections_of.size();
    for (std::size_t d : detections_of)
      true_detections += std::any_of(in.truth_any.begin(), in.truth_any.end(),
                                     [&](std::size_t t) { return near(d, t); });
  }
};

// ---------------------------------------------------------------------------
// Result: metrics in report order, plus the correctness verdict.
// ---------------------------------------------------------------------------

struct Result {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit,
           std::string note = {}) {
    metrics.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  void fail(std::string why) { errors.push_back(std::move(why)); }
};

/// Latency summary: the median and the tail, where the tail is a fixed
/// percentile per workload chosen so its designed sample count leaves at
/// least 10 samples beyond it. Drivers extend a run until it does, up to
/// kMaxStretch times --seconds.
constexpr double kMaxStretch = 3.0;

struct Latencies {
  std::vector<double> ms;
  double tail_q = 0.9;

  std::size_t needed() const {
    return static_cast<std::size_t>(std::ceil(10.0 / (1.0 - tail_q) - 1e-9));
  }
  bool enough() const { return ms.size() >= needed(); }
  void report(Result& r, const std::string& base, const char* unit = "ms",
              double scale = 1.0) const {
    const double n = static_cast<double>(ms.size());
    char note[96];
    std::snprintf(note, sizeof note, "p%g of %zu samples", 100.0 * tail_q,
                  ms.size());
    r.add(base + "_p50_" + unit, ms.empty() ? 0.0 : scale * median(ms), unit,
          "p50 of " + std::to_string(ms.size()) + " samples");
    r.add(base + "_tail_" + unit,
          ms.empty() ? 0.0 : scale * obs::percentile(ms, tail_q), unit, note);
    if (n > 0 && n * (1.0 - tail_q) < 10.0)
      r.fail(base + ": fewer than 10 samples beyond the tail percentile");
  }
};

struct Counts {
  std::uint64_t samples = 0, windows = 0, detections = 0;
};

void reconcile(Result& r, obs::Registry& reg, const std::string& name,
               std::uint64_t expected) {
  const std::uint64_t got = reg.counter(name).value();
  if (got != expected)
    r.fail("registry mismatch: " + name + " = " + std::to_string(got) +
           ", harness counted " + std::to_string(expected));
}

// ---------------------------------------------------------------------------
// Shared end-to-end bookkeeping of one workload run.
// ---------------------------------------------------------------------------

struct Run {
  Latencies job, lag;
  Quality quality;
  std::size_t ops = 0, failed_ops = 0, detections = 0;
  std::uint64_t samples = 0;
  double wall_s = 0.0, cpu_s = 0.0;

  /// Scores one finished operation (a job or a stream session).
  void settle(Result& r, const Input& in, const std::vector<std::size_t>& got,
              bool threw) {
    ++ops;
    detections += got.size();
    if (threw || got != in.reference) {
      ++failed_ops;
      if (!threw) r.fail("detections diverged from offline locate()");
    }
  }

  void report(Result& r, double setup_s) const {
    r.add("setup_s", setup_s, "s", "median of repeated set-ups");
    r.add("samples_per_s", wall_s > 0 ? static_cast<double>(samples) / wall_s : 0.0,
          "samples/s");
    job.report(r, "job_latency");
    lag.report(r, "detect_lag");
    r.add("cpu_s_per_msample",
          samples > 0 ? cpu_s / (1e-6 * static_cast<double>(samples)) : 0.0,
          "s/Msample");
    r.add("hit_rate",
          quality.truth ? static_cast<double>(quality.hits) /
                              static_cast<double>(quality.truth)
                        : 0.0,
          "share");
    r.add("precision",
          quality.detections ? static_cast<double>(quality.true_detections) /
                                   static_cast<double>(quality.detections)
                             : 0.0,
          "share");
    r.add("ok_share",
          ops ? static_cast<double>(ops - failed_ops) / static_cast<double>(ops)
              : 0.0,
          "share");
    r.attempted = ops;
    r.failed = failed_ops;
    if (detections == 0) r.fail("workload produced zero detections");
  }
};

constexpr std::uint64_t kQualitySeed = 0x9a11;

void score_quality(const std::vector<const Model*>& models, Quality& q) {
  std::vector<Input> corpus;
  for (const Model* m : models)
    for (std::size_t i = 0; i < 4; ++i)
      corpus.push_back(make_input(*m, 10, i % 2 == 1, mix(kQualitySeed, i)));
  compute_references(corpus);
  for (const auto& in : corpus) q.add(in, in.reference);
}

/// Median time from Engine construction through load_artifact of every
/// model to the first scored window, over repeated set-ups in this process.
double measure_setup(const std::vector<const Model*>& models,
                     std::size_t max_batch_windows, bool via_job,
                     std::span<const float> first_window) {
  constexpr int kReps = 15;
  std::vector<double> s;
  for (int rep = 0; rep < kReps; ++rep) {
    obs::Registry reg;
    api::EngineConfig cfg;
    cfg.max_batch_windows = max_batch_windows;
    cfg.registry = &reg;
    const auto t0 = Clock::now();
    auto engine = std::make_unique<api::Engine>(cfg);
    for (const Model* m : models) engine->load_artifact(m->path);
    auto session = engine->open_session(models.front()->cipher);
    if (via_job) {
      session.submit(std::vector<float>(first_window.begin(), first_window.end()))
          .get();
    } else {
      auto stream = session.open_stream();
      stream.feed(first_window);
      stream.finish();
    }
    s.push_back(seconds_between(t0, Clock::now()));
  }
  return median(s);
}

// ---------------------------------------------------------------------------
// trace_jobs: closed loop, one whole-trace job per hardware thread in
// flight through Session::submit on the default EngineConfig.
// ---------------------------------------------------------------------------

constexpr std::size_t kJobSamples = 80000;
constexpr std::size_t kJobPool = 4;

struct Ctx {
  const Model& aes;
  const Model& camellia;
  std::uint64_t seed;
  double seconds;
  bool traced;
  Result& result;
  obs::Registry& registry;
};

void run_trace_jobs(Ctx& c, std::vector<Input>& pool, Run& run) {
  for (std::size_t i = 0; i < kJobPool; ++i)
    pool.push_back(make_input(c.aes, 8, true, mix(c.seed, 100 + i), kJobSamples));
  compute_references(pool);
  score_quality({&c.aes}, run.quality);
  const double setup = measure_setup(
      {&c.aes}, 0, true,
      std::span<const float>(pool[0].samples).first(c.aes.window));

  api::EngineConfig cfg;
  cfg.registry = &c.registry;
  api::Engine engine(cfg);
  engine.load_artifact(c.aes.path);
  auto session = engine.open_session(c.aes.cipher);

  run.job.tail_q = 0.75;
  run.lag.tail_q = 0.95;
  struct Slot {
    std::future<std::vector<std::size_t>> future;
    const Input* input = nullptr;
    Clock::time_point submitted;
  };
  const std::size_t in_flight = std::max(1u, std::thread::hardware_concurrency());
  std::vector<Slot> slots(in_flight);
  std::size_t submitted = 0;
  const auto t0 = Clock::now();
  const double cpu0 = cpu_seconds();
  const auto submit = [&](Slot& s) {
    s.input = &pool[submitted++ % pool.size()];
    std::vector<float> copy = s.input->samples;
    s.submitted = Clock::now();
    s.future = session.submit(std::move(copy));
  };
  for (auto& s : slots) submit(s);
  Clock::time_point last = t0;
  std::size_t busy = slots.size();
  while (busy > 0) {
    bool any = false;
    for (auto& s : slots) {
      if (!s.input ||
          s.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
        continue;
      any = true;
      const auto ready = Clock::now();
      last = ready;
      std::vector<std::size_t> got;
      bool threw = false;
      try {
        got = s.future.get();
      } catch (const std::exception& e) {
        threw = true;
        c.result.fail(std::string("job threw: ") + e.what());
      }
      const double latency = ms_between(s.submitted, ready);
      run.job.ms.push_back(latency);
      // A whole-trace job is one chunk: every detection became final when
      // the trace was submitted and is delivered when the future is ready.
      for (std::size_t d = 0; d < got.size(); ++d) run.lag.ms.push_back(latency);
      run.samples += s.input->samples.size();
      run.settle(c.result, *s.input, got, threw);
      s.input = nullptr;
      --busy;
      if (seconds_between(t0, ready) < c.seconds || !run.job.enough() ||
          !run.lag.enough()) {
        if (seconds_between(t0, ready) < kMaxStretch * c.seconds) {
          submit(s);
          ++busy;
        }
      }
    }
    if (!any) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  run.wall_s = seconds_between(t0, last);
  run.cpu_s = cpu_seconds() - cpu0;
  session.drain();
  run.report(c.result, setup);

  const std::string p = "engine." + c.aes.name;
  reconcile(c.result, c.registry, p + ".requests", submitted);
  reconcile(c.result, c.registry, p + ".completed", run.ops);
  const auto lat = c.registry.histogram(p + ".latency_ns").snapshot();
  if (lat.count != run.ops)
    c.result.fail("registry mismatch: " + p + ".latency_ns count");
}

// ---------------------------------------------------------------------------
// Streams: one driver thread feeding chunks into api::Stream sessions.
// ---------------------------------------------------------------------------

/// One stream session in flight: which input, how far fed, and the times
/// detections will be charged against.
struct Feed {
  const Input* input = nullptr;
  std::unique_ptr<api::Stream> stream;
  std::size_t offset = 0;
  std::vector<Clock::time_point> chunk_sent;  ///< when each chunk was fed
  std::vector<std::size_t> got;
  bool threw = false;

  bool exhausted() const { return offset >= input->samples.size(); }
  std::span<const float> next_chunk() const {
    const std::span<const float> all(input->samples);
    return all.subspan(offset, std::min(input->chunk, all.size() - offset));
  }
  /// Records delivered detections; lag runs from the feed of the chunk
  /// whose arrival made each one final (taken from the replay).
  void deliver(const std::vector<api::Detection>& dets, Clock::time_point at,
               Latencies& lag) {
    for (const auto& d : dets) {
      const std::size_t j = got.size();
      got.push_back(d.start);
      if (j < input->final_chunk.size()) {
        const std::size_t k =
            std::min(input->final_chunk[j], chunk_sent.size() - 1);
        lag.ms.push_back(ms_between(chunk_sent[k], at));
      }
    }
  }
};

// fleet_stream: closed loop; stride-sized chunks round-robin into
// kFleetSessions sessions, half AES and half Camellia, batched across
// sessions. Drives hold back-to-back COs: 3 for AES, 15 for the ~5x shorter
// Camellia COs, so both models' drives are about 33k samples and both
// batchers stay busy for the whole generation.
constexpr std::size_t kFleetSessions = 64;
constexpr std::size_t kFleetPool = 8;
constexpr std::size_t kFleetBatch = 256;
constexpr std::size_t kCamelliaCos = 15;

void run_fleet(Ctx& c, std::vector<Input>& pool, Run& run,
               Latencies& feed_us) {
  for (std::size_t i = 0; i < kFleetPool; ++i) {
    pool.push_back(make_input(c.aes, 3, false, mix(c.seed, 200 + i)));
    pool.back().chunk = c.aes.stride;
    pool.push_back(make_input(c.camellia, kCamelliaCos, false, mix(c.seed, 300 + i)));
    pool.back().chunk = c.camellia.stride;
  }
  compute_references(pool);
  score_quality({&c.aes, &c.camellia}, run.quality);
  const double setup = measure_setup(
      {&c.aes, &c.camellia}, kFleetBatch, false,
      std::span<const float>(pool[0].samples).first(c.aes.window));

  api::EngineConfig cfg;
  cfg.max_batch_windows = kFleetBatch;
  cfg.registry = &c.registry;
  api::Engine engine(cfg);
  engine.load_artifact(c.aes.path);
  engine.load_artifact(c.camellia.path);
  api::Session sessions[2] = {engine.open_session(c.aes.cipher),
                              engine.open_session(c.camellia.cipher)};

  run.job.tail_q = 0.75;
  run.lag.tail_q = 0.99;
  feed_us.tail_q = 0.999;
  std::map<std::string, Counts> counts;
  const auto t0 = Clock::now();
  const double cpu0 = cpu_seconds();
  std::size_t generation = 0;
  Clock::time_point end = t0;
  // Generations of kFleetSessions sessions run to completion; the loop
  // stops after the generation that crosses --seconds.
  while (seconds_between(t0, Clock::now()) < c.seconds ||
         !run.job.enough() || !run.lag.enough()) {
    if (generation > 0 && seconds_between(t0, Clock::now()) > kMaxStretch * c.seconds)
      break;
    std::vector<Feed> feeds(kFleetSessions);
    for (std::size_t i = 0; i < feeds.size(); ++i) {
      const std::size_t pick = 2 * ((i / 2 + generation * 5) % kFleetPool) + i % 2;
      feeds[i].input = &pool[pick];
      feeds[i].stream = std::make_unique<api::Stream>(
          sessions[i % 2].open_stream());
    }
    std::size_t active = feeds.size();
    while (active > 0) {
      active = 0;
      for (auto& f : feeds) {
        if (f.threw || f.exhausted()) continue;
        ++active;
        const auto chunk = f.next_chunk();
        const auto t = Clock::now();
        f.chunk_sent.push_back(t);
        try {
          const auto dets = f.stream->feed(chunk);
          const auto back = Clock::now();
          if (c.traced) feed_us.ms.push_back(ms_between(t, back));
          f.deliver(dets, back, run.lag);
        } catch (const std::exception& e) {
          f.threw = true;
          c.result.fail(std::string("fleet feed threw: ") + e.what());
        }
        f.offset += chunk.size();
      }
    }
    // Every chunk is in. Poll (an empty feed delivers what the batcher
    // finalized) until each session holds every detection its chunks made
    // final, then finish it, which releases the rest; job latency runs from
    // the session's last chunk.
    const auto drain_start = Clock::now();
    bool pending = true;
    while (pending && seconds_between(drain_start, Clock::now()) < 60.0) {
      pending = false;
      for (auto& f : feeds) {
        if (f.threw || f.got.size() >= f.input->final_before_eof()) continue;
        pending = true;
        try {
          f.deliver(f.stream->feed({}), Clock::now(), run.lag);
        } catch (const std::exception& e) {
          f.threw = true;
          c.result.fail(std::string("fleet poll threw: ") + e.what());
        }
      }
      if (pending) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    for (auto& f : feeds) {
      try {
        if (!f.threw) f.deliver(f.stream->finish(), Clock::now(), run.lag);
      } catch (const std::exception& e) {
        f.threw = true;
        c.result.fail(std::string("fleet finish threw: ") + e.what());
      }
      end = Clock::now();
      run.job.ms.push_back(ms_between(f.chunk_sent.back(), end));
      run.samples += f.offset;
      Counts& k = counts[f.input->model->name];
      k.samples += f.offset;
      k.windows += f.input->model->windows_in(f.offset);
      k.detections += f.got.size();
      run.settle(c.result, *f.input, f.got, f.threw);
    }
    ++generation;
  }
  run.wall_s = seconds_between(t0, end);
  run.cpu_s = cpu_seconds() - cpu0;
  run.report(c.result, setup);

  for (const auto& [model, k] : counts) {
    reconcile(c.result, c.registry, "stream." + model + ".samples_fed", k.samples);
    reconcile(c.result, c.registry, "stream." + model + ".windows_scored", k.windows);
    reconcile(c.result, c.registry, "stream." + model + ".detections", k.detections);
    reconcile(c.result, c.registry, "batch." + model + ".coalesced_windows",
              k.windows);
  }
}

// ---------------------------------------------------------------------------
// Per-layer timings (traced run only): calls into nn and core, timed here.
// ---------------------------------------------------------------------------

/// Best-of-3 seconds per call of fn, each round running for ~budget_s.
double time_per_call(const std::function<void()>& fn, double budget_s) {
  fn();  // warm caches and workspaces
  double best = 1e30;
  for (int round = 0; round < 3; ++round) {
    std::size_t calls = 0;
    const auto t0 = Clock::now();
    double s = 0.0;
    do {
      fn();
      ++calls;
      s = seconds_between(t0, Clock::now());
    } while (s < budget_s);
    best = std::min(best, s / static_cast<double>(calls));
  }
  return best;
}

void time_nn(Model& m, std::span<const float> samples, Result& r) {
  constexpr std::size_t kBatch = 64;
  const std::string p = "nn." + m.name;
  nn::Sequential& net = m.locator.model();
  const std::size_t n = m.window;

  nn::Tensor x({kBatch, 1, n});
  for (std::size_t i = 0; i < kBatch; ++i)
    nn::kernels::standardize(samples.subspan(i * m.stride, n), x.data() + i * n);

  // Blocks of the paper CNN: entry conv block, two residual blocks, and the
  // GAP + FC head (every layer after the second residual block).
  const struct {
    const char* name;
    std::size_t begin, end;
  } blocks[] = {{"entry", 0, 1}, {"res1", 1, 2}, {"res2", 2, 3}, {"head", 3, net.size()}};
  nn::Workspace ws;
  double flops = 0.0, bytes = 0.0;
  nn::kernels::IntraOpGuard one_thread(1);
  for (const auto& b : blocks) {
    const auto forward = [&](const nn::Tensor& in) {
      nn::Tensor y = net.layer(b.begin).forward(in, ws);
      for (std::size_t i = b.begin + 1; i < b.end; ++i)
        y = net.layer(i).forward(y, ws);
      return y;
    };
    const nn::Tensor y = forward(x);
    const double s = time_per_call([&] { (void)forward(x); }, 0.05);
    r.add(p + "." + b.name + ".ns_per_window", 1e9 * s / kBatch, "ns");
    std::size_t weights = 0;
    for (std::size_t i = b.begin; i < b.end; ++i)
      for (const nn::Param* param : std::as_const(net.layer(i)).params()) {
        const auto& shape = param->value.shape();
        weights += param->value.numel();
        // Convolutions keep the window length (same padding, stride 1).
        if (shape.size() == 3) flops += 2.0 * static_cast<double>(param->value.numel() * n);
        if (shape.size() == 2) flops += 2.0 * static_cast<double>(param->value.numel());
      }
    bytes += 4.0 * (static_cast<double>(x.numel() + y.numel()) / kBatch +
                    static_cast<double>(weights) / kBatch);
    x = y;
  }
  r.add(p + ".flops_per_window", flops, "flop");
  r.add(p + ".bytes_per_window", bytes, "B");
}

void time_batch256(const Model& m, std::span<const float> samples, Result& r) {
  constexpr std::size_t kBatch = 256;
  core::SlidingWindowClassifier classifier(m.locator.model(), m.window, m.stride);
  nn::Workspace ws;
  std::vector<float> scores(kBatch);
  const double s = time_per_call(
      [&] {
        classifier.score_window_batch(
            kBatch,
            [&](std::size_t i) { return samples.subspan(i * m.stride, m.window); },
            scores.data(), ws);
      },
      0.05);
  r.add("nn." + m.name + ".batch256.ns_per_window", 1e9 * s / kBatch, "ns");
}

/// Core stage times on one trace. Segmentation is what locate() spends
/// outside classify and refine; the independently timed stages must not
/// exceed locate by more than 10%.
void time_core(const Model& m, std::span<const float> samples, Result& r,
               bool check_sum) {
  const std::string p = "core." + m.name;
  core::SlidingWindowClassifier classifier(m.locator.model(), m.window, m.stride);
  nn::Workspace ws;
  const std::size_t windows = classifier.num_windows(samples.size());
  std::vector<float> buf(m.window);
  const double standardize = time_per_call(
      [&] {
        for (std::size_t i = 0; i < windows; ++i)
          nn::kernels::standardize(samples.subspan(i * m.stride, m.window),
                                   buf.data());
      },
      0.02);
  // classify and locate alternate so both see the same machine state; each
  // keeps its best of 3.
  double classify = 1e30, locate = 1e30;
  std::vector<std::size_t> dets;
  for (int round = 0; round < 3; ++round) {
    auto t = Clock::now();
    (void)classifier.classify(samples, ws);
    classify = std::min(classify, seconds_between(t, Clock::now()));
    t = Clock::now();
    dets = m.locator.locate(samples, ws);
    locate = std::min(locate, seconds_between(t, Clock::now()));
  }

  // The refine regions locate() searches: the template's span plus the
  // search radius on each side of the coarse start (detection + fine
  // offset), clipped to the trace.
  const auto tmpl = m.locator.fine_template();
  double refine = 0.0;
  if (!tmpl.empty() && !dets.empty()) {
    const auto radius = static_cast<std::ptrdiff_t>(m.locator.fine_search_radius());
    const auto last = static_cast<std::ptrdiff_t>(samples.size() - tmpl.size());
    refine = time_per_call(
        [&] {
          for (std::size_t d : dets) {
            const std::ptrdiff_t center =
                static_cast<std::ptrdiff_t>(d) + m.locator.fine_offset();
            const std::ptrdiff_t lo = std::clamp<std::ptrdiff_t>(center - radius, 0, last);
            const std::ptrdiff_t hi = std::clamp<std::ptrdiff_t>(center + radius, lo, last);
            (void)m.locator.refine_in_region(
                samples.subspan(static_cast<std::size_t>(lo),
                                static_cast<std::size_t>(hi - lo) + tmpl.size()),
                static_cast<std::size_t>(lo));
          }
        },
        0.01);
  }
  const double ratio = (classify + refine) / locate;
  r.add(p + ".standardize.ns_per_window", 1e9 * standardize / static_cast<double>(windows), "ns");
  r.add(p + ".classify.ns_per_window", 1e9 * classify / static_cast<double>(windows), "ns");
  r.add(p + ".refine.us_per_detection",
        dets.empty() ? 0.0 : 1e6 * refine / static_cast<double>(dets.size()), "us");
  r.add(p + ".locate.ms_per_trace", 1e3 * locate, "ms");
  r.add(p + ".stage_sum_share", ratio, "share");
  if (check_sum && ratio > 1.10)
    r.fail(p + ": classify + refine exceed locate by more than 10%");
}

void report_runtime(Result& r, obs::Registry& reg, const Model& aes,
                    const Model& camellia) {
  // Tail p75, like trace_jobs' job latency, which the queue wait feeds.
  const auto wait = reg.histogram("engine." + aes.name + ".queue_wait_ns").snapshot();
  const std::string q = "runtime." + aes.name + ".queue_wait";
  r.add(q + "_p50_ms", wait.count ? 1e-6 * wait.quantile(0.5) : 0.0, "ms");
  r.add(q + "_tail_ms", wait.count ? 1e-6 * wait.quantile(0.75) : 0.0, "ms",
        "p75 of " + std::to_string(wait.count));
  for (const Model* m : {&aes, &camellia}) {
    const std::string p = "batch." + m->name;
    const auto occ = reg.histogram(p + ".occupancy_windows").snapshot();
    const auto flushes = reg.counter(p + ".batches").value();
    r.add("runtime.batch." + m->name + ".occupancy_windows_p50",
          occ.count ? occ.quantile(0.5) : 0.0, "windows");
    r.add("runtime.batch." + m->name + ".flushes", static_cast<double>(flushes),
          "count");
    r.add("runtime.batch." + m->name + ".flush_linger_share",
          flushes ? static_cast<double>(reg.counter(p + ".flush_linger").value()) /
                        static_cast<double>(flushes)
                  : 0.0,
          "share");
  }
  const auto lag = reg.histogram("stream." + aes.name + ".emission_lag_samples").snapshot();
  r.add("core." + aes.name + ".emission_lag_samples_p50",
        lag.count ? lag.quantile(0.5) : 0.0, "samples");
}

/// nproc concurrent whole-trace jobs on a default Engine publishing into
/// `reg`: feeds the service-queue histogram.
void probe_jobs(const Model& m, std::span<const float> samples,
                obs::Registry& reg) {
  api::EngineConfig cfg;
  cfg.registry = &reg;
  api::Engine engine(cfg);
  engine.load_artifact(m.path);
  auto session = engine.open_session(m.cipher);
  std::vector<std::future<std::vector<std::size_t>>> jobs;
  for (unsigned i = 0; i < std::max(1u, std::thread::hardware_concurrency()); ++i)
    jobs.push_back(session.submit(std::vector<float>(samples.begin(), samples.end())));
  for (auto& j : jobs) (void)j.get();
  session.drain();
}

/// One default (unbatched) stream fed stride-sized chunks: per-call wall
/// time of Stream::feed.
void probe_feeds(const Model& m, std::span<const float> samples,
                 Latencies& feed_us) {
  api::Engine engine;
  engine.load_artifact(m.path);
  auto stream = engine.open_session(m.cipher).open_stream();
  feed_us.tail_q = 0.95;
  for (std::size_t off = 0; off < samples.size(); off += m.stride) {
    const auto t = Clock::now();
    (void)stream.feed(samples.subspan(off, std::min(m.stride, samples.size() - off)));
    feed_us.ms.push_back(ms_between(t, Clock::now()));
  }
  (void)stream.finish();
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

std::string host_stamp(std::uint64_t seed, const std::string& workload) {
  __builtin_cpu_init();
  std::string isa;
  const auto flag = [&](bool on, const char* name) {
    if (on) isa += (isa.empty() ? "" : ",") + std::string(name);
  };
  flag(__builtin_cpu_supports("avx2"), "avx2");
  flag(__builtin_cpu_supports("avx512f"), "avx512f");
  flag(__builtin_cpu_supports("avx512vnni"), "vnni");
  const char* threads = std::getenv("SCALOCATE_THREADS");
  obs::JsonWriter w;
  w.begin_object();
  w.kv("workload", workload);
  w.kv("seed", seed);
  w.kv("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.kv("isa", isa.empty() ? "baseline" : isa);
  w.kv("build_type", PERFBENCH_BUILD_TYPE);
  w.kv("compiler", PERFBENCH_COMPILER);
  w.kv("SCALOCATE_THREADS", threads ? threads : "unset");
  w.end_object();
  return w.str();
}

void print_result(const Result& r) {
  for (const auto& m : r.metrics)
    std::printf("# %-48s %16.6g %-10s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  for (const auto& e : r.errors) std::printf("# FAIL: %s\n", e.c_str());
  obs::JsonWriter w;
  w.begin_object();
  w.kv("correct", r.errors.empty());
  w.kv("attempted", static_cast<std::uint64_t>(r.attempted));
  w.kv("failed", static_cast<std::uint64_t>(r.failed));
  w.key("metrics").begin_object();
  for (const auto& m : r.metrics) {
    w.key(m.name).begin_object();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string models = "perfbench/models";
};

int run(const Options& o) {
  const std::string stamp = host_stamp(o.seed, o.workload);
  std::printf("# host %s\n", stamp.c_str());
  std::fflush(stdout);

  Model aes = load_model(o.models, kRecipes[0]);
  Model camellia = load_model(o.models, kRecipes[1]);
  Result e2e, layers;
  obs::Registry registry;
  Ctx c{aes, camellia, o.seed, o.seconds, o.traced, e2e, registry};
  std::vector<Input> pool;
  pool.reserve(64);  // Input pointers are handed out; never reallocate
  Run run;
  Latencies feed_us;
  if (o.workload == "trace_jobs") {
    run_trace_jobs(c, pool, run);
  } else if (o.workload == "fleet_stream") {
    run_fleet(c, pool, run, feed_us);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }

  Result& out = o.traced ? layers : e2e;
  if (o.traced) {
    layers.attempted = e2e.attempted;
    layers.failed = e2e.failed;
    layers.errors = e2e.errors;
    // Layer inputs: the workload's first input of each model, or a fresh
    // ten-CO capture when the workload has none long enough for a
    // 256-window batch.
    const auto input_of = [&](const Model& m) -> std::span<const float> {
      const std::size_t need = m.window + 255 * m.stride;
      for (const auto& in : pool)
        if (in.model == &m && in.samples.size() >= need) return in.samples;
      pool.push_back(make_input(m, 10, false, mix(o.seed, 500)));
      return pool.back().samples;
    };
    for (Model* m : {&aes, &camellia}) {
      const auto samples = input_of(*m);
      time_nn(*m, samples, layers);
      time_batch256(*m, samples, layers);
      time_core(*m, samples, layers, o.workload == "trace_jobs" && m == &aes);
    }
    // A layer the workload's own loop never calls (the service queue on
    // fleet_stream, Stream::feed on trace_jobs) is timed on the workload's
    // first AES input instead, so every per-layer time is a measurement.
    if (registry.histogram("engine." + aes.name + ".queue_wait_ns").count() == 0)
      probe_jobs(aes, input_of(aes), registry);
    if (feed_us.ms.empty()) probe_feeds(aes, input_of(aes), feed_us);
    report_runtime(layers, registry, aes, camellia);
    feed_us.report(layers, "api.feed", "us", 1e3);
  }
  print_result(out);
  return out.errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 3 && std::strcmp(argv[1], "regen") == 0) return regenerate(argv[2]);
    if (argc < 2 || std::strcmp(argv[1], "run") != 0) {
      std::fprintf(stderr,
                   "usage: perfbench run --workload W --seed N --seconds S "
                   "--trace 0|1 [--models DIR]\n       perfbench regen DIR\n");
      return 2;
    }
    Options o;
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string k = argv[i], v = argv[i + 1];
      if (k == "--workload") o.workload = v;
      else if (k == "--seed") o.seed = std::stoull(v);
      else if (k == "--seconds") o.seconds = std::stod(v);
      else if (k == "--trace") o.traced = v == "1";
      else if (k == "--models") o.models = v;
      else throw std::invalid_argument("unknown option " + k);
    }
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

#include "runtime/streaming_locator.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "runtime/fault_injector.hpp"

namespace scalocate::runtime {

StreamMetrics StreamMetrics::resolve(obs::Registry& registry,
                                     const std::string& prefix) {
  const std::string p = prefix.empty() ? "stream" : prefix;
  StreamMetrics m;
  m.samples_fed = &registry.counter(p + ".samples_fed");
  m.windows_scored = &registry.counter(p + ".windows_scored");
  m.detections = &registry.counter(p + ".detections");
  m.corrupt_samples = &registry.counter(p + ".corrupt_samples");
  m.emission_lag_samples = &registry.histogram(p + ".emission_lag_samples");
  return m;
}

std::span<const float> IngestCheck::check(std::span<const float> chunk) {
  // Chaos hook: an armed "stream.feed" site NaN-poisons the chunk HERE,
  // upstream of validation — the injected corruption must be caught by the
  // same scan that catches a real dying probe.
  std::span<const float> data = chunk;
  if (FaultInjector::instance().poison("stream.feed", chunk, scratch_))
    data = scratch_;
  std::size_t bad = 0;
  for (const float sample : data)
    if (!std::isfinite(sample)) ++bad;
  if (bad == 0) return data;
  corrupt_ += bad;
  if (counter_) counter_->add(bad);
  if (policy_ == StreamingConfig::NanPolicy::kReject)
    // Stream state untouched: the bad chunk is simply not part of the
    // stream, so the caller can keep feeding clean chunks and parity with
    // offline locate over the accepted samples holds.
    throw CorruptSignal("stream feed: chunk contains " + std::to_string(bad) +
                        " non-finite sample(s); nan_policy is kReject");
  if (data.data() != scratch_.data()) scratch_.assign(data.begin(), data.end());
  for (float& sample : scratch_)
    if (!std::isfinite(sample)) sample = 0.0f;
  return scratch_;
}

StreamingLocator::StreamingLocator(const core::CoLocator& locator,
                                   StreamingConfig config)
    : locator_(locator),
      window_(locator.classifier().window()),  // throws when untrained
      stride_(locator.classifier().stride()),
      segmenter_(locator.segmenter(config.threshold)),
      metrics_(config.registry ? StreamMetrics::resolve(*config.registry,
                                                        config.metric_prefix)
                               : StreamMetrics{}),
      ingest_(config.nan_policy, metrics_.corrupt_samples) {}

void StreamingLocator::reset() {
  ring_.reset();
  segmenter_.reset();
  finished_ = false;
  ingest_.reset();
}

std::vector<Detection> StreamingLocator::feed(std::span<const float> chunk) {
  detail::require(!finished_,
                  "StreamingLocator::feed after finish (reset() first)");
  append_ingested(ingest_.check(chunk));
  // Score every window fully contained in the stream so far in one
  // score_window_batch call, standardizing each straight from the ring
  // into the workspace's plan arena — the identical zero-copy path the
  // offline SlidingWindowClassifier::score_into uses. Each CNN row is
  // computed independently of its batch neighbors, so the scores match the
  // offline classifier however the chunk boundaries group the windows.
  const std::size_t count = ready_windows();
  scores_buf_.resize(count);
  if (count > 0)
    locator_.classifier().score_window_batch(
        count, [&](std::size_t i) { return ready_window(i); },
        scores_buf_.data(), ws_);
  std::vector<Detection> out;
  advance(scores_buf_, out);
  return out;
}

std::vector<Detection> StreamingLocator::finish() {
  std::vector<Detection> out;
  finish_into(out);
  return out;
}

void StreamingLocator::append_ingested(std::span<const float> chunk) {
  detail::require(!finished_,
                  "StreamingLocator::append_ingested after finish");
  if (metrics_.enabled()) metrics_.samples_fed->add(chunk.size());
  ring_.append(chunk);
}

std::size_t StreamingLocator::ready_windows() const {
  const std::size_t n = ring_.size();
  if (n < window_) return 0;
  const std::size_t total = (n - window_) / stride_ + 1;
  const std::size_t scored = segmenter_.windows();
  return total > scored ? total - scored : 0;
}

std::span<const float> StreamingLocator::ready_window(std::size_t i) const {
  return ring_.view((segmenter_.windows() + i) * stride_, window_);
}

void StreamingLocator::accept_scores(std::span<const float> scores,
                                     std::vector<Detection>& out) {
  detail::require(!finished_,
                  "StreamingLocator::accept_scores after finish");
  detail::require(scores.size() <= ready_windows(),
                  "StreamingLocator::accept_scores: more scores than ready "
                  "windows");
  advance(scores, out);
}

void StreamingLocator::finish_into(std::vector<Detection>& out) {
  detail::require(!finished_, "StreamingLocator: finish called twice");
  detail::require(ready_windows() == 0,
                  "StreamingLocator::finish_into with unscored ready windows "
                  "(the scheduler must flush first)");
  const std::size_t first = out.size();
  segmenter_.finish(resident(), ring_.oldest(), out);
  record_detections(out, first);
  finished_ = true;
}

std::span<const float> StreamingLocator::resident() const {
  return ring_.view(ring_.oldest(), ring_.size() - ring_.oldest());
}

void StreamingLocator::advance(std::span<const float> scores,
                               std::vector<Detection>& out) {
  if (metrics_.enabled()) metrics_.windows_scored->add(scores.size());
  const std::size_t first = out.size();
  segmenter_.push(scores, resident(), ring_.oldest(), out);
  record_detections(out, first);
  // Oldest sample any later stage can still touch: the next unscored
  // window, or the Segmenter's next template search region.
  ring_.discard_below(std::min(segmenter_.windows() * stride_,
                               segmenter_.oldest_needed()));
}

void StreamingLocator::record_detections(const std::vector<Detection>& out,
                                         std::size_t first) {
  if (!metrics_.enabled()) return;
  for (std::size_t i = first; i < out.size(); ++i) {
    metrics_.detections->add();
    // Emission lag: how far the stream head ran ahead before this
    // detection could be finalized.
    metrics_.emission_lag_samples->record(
        ring_.size() > out[i].start ? ring_.size() - out[i].start : 0);
  }
}

}  // namespace scalocate::runtime

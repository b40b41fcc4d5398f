#include "api/engine.hpp"

#include <cctype>

#include "api/artifact.hpp"
#include "common/error.hpp"

namespace scalocate::api {

// ---------------------------------------------------------------------------
// Stream
// ---------------------------------------------------------------------------

Stream::Stream(std::shared_ptr<detail::ModelEntry> entry,
               StreamingConfig config)
    : entry_(std::move(entry)), config_(std::move(config)) {
  if (entry_->batcher)
    batched_ = entry_->batcher->open_stream(config_);
  else
    streaming_ =
        std::make_unique<runtime::StreamingLocator>(*entry_->locator, config_);
}

std::vector<Detection> Stream::feed(std::span<const float> chunk) {
  if (batched_) {
    // Wait-free ingest, then an opportunistic drain: whatever the batcher
    // finalized so far (possibly from earlier chunks) is delivered now.
    batched_->feed(chunk);
    std::vector<Detection> drained;
    batched_->poll(drained);
    pending_.insert(pending_.end(), drained.begin(), drained.end());
  } else {
    const auto detections = streaming_->feed(chunk);
    pending_.insert(pending_.end(), detections.begin(), detections.end());
  }
  return deliver();
}

std::vector<Detection> Stream::finish() {
  const auto detections =
      batched_ ? batched_->finish() : streaming_->finish();
  pending_.insert(pending_.end(), detections.begin(), detections.end());
  return deliver();
}

void Stream::reset() {
  // The batched path has no in-place reset: the old BatchedStream detaches
  // (the batcher prunes it next tick) and a fresh one takes its place.
  if (batched_)
    batched_ = entry_->batcher->open_stream(config_);
  else
    streaming_->reset();
  pending_.clear();
}

std::vector<Detection> Stream::deliver() {
  if (!callback_) {
    std::vector<Detection> out(pending_.begin(), pending_.end());
    pending_.clear();
    return out;
  }
  while (!pending_.empty()) {
    callback_(pending_.front());  // a throw keeps the detection queued
    pending_.pop_front();
  }
  return {};
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

std::future<std::vector<std::size_t>> Session::submit(std::vector<float> trace,
                                                      SubmitOptions options) {
  return entry_->service.submit(std::move(trace), nullptr, options);
}

std::future<std::vector<std::size_t>> Session::submit_view(
    std::span<const float> trace, SubmitOptions options) {
  return entry_->service.submit_view(trace, nullptr, options);
}

Job Session::submit_job(std::vector<float> trace, SubmitOptions options) {
  auto flag = std::make_shared<std::atomic<bool>>(false);
  auto future = entry_->service.submit(std::move(trace), flag, options);
  return Job(std::move(flag), std::move(future));
}

Stream Session::open_stream(StreamingConfig config) const {
  // Engine-level telemetry wiring, unless the caller routed the stream to a
  // registry of their own.
  if (!config.registry && entry_->registry) {
    config.registry = entry_->registry;
    config.metric_prefix = entry_->stream_prefix;
  }
  return Stream(entry_, config);
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

std::string metric_model_name(crypto::CipherId cipher) {
  std::string out;
  for (const char c : crypto::cipher_display_name(cipher)) {
    if (std::isalnum(static_cast<unsigned char>(c)))
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

Engine::Engine(EngineConfig config)
    : config_(config), pool_(runtime::resolve_workers(config.workers)) {
  if (config_.registry) pool_.attach_metrics(*config_.registry);
}

Engine::~Engine() {
  // Entries a Stream still holds outlive the registry; their batchers
  // score on pool_, so they stop before it goes.
  for (const auto& weak : batched_)
    if (const auto entry = weak.lock()) entry->batcher->stop();
}

crypto::CipherId Engine::register_entry(
    std::shared_ptr<detail::ModelEntry> entry) {
  scalocate::detail::require(entry->locator->is_trained(),
                  "Engine: model must be trained");
  const auto cipher = entry->locator->config().params.cipher;
  if (entry->registry) entry->stream_prefix = "stream." + metric_model_name(cipher);
  if (config_.max_batch_windows > 0)
    entry->batcher = std::make_unique<runtime::WindowBatcher>(
        *entry->locator, pool_, config_, "batch." + metric_model_name(cipher));
  // A replaced entry may hold the last reference to a service with jobs
  // still in flight; its drain() must run after the registry lock is
  // released, or a hot-swap would stall every other Engine operation.
  std::shared_ptr<detail::ModelEntry> replaced;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (entry->batcher) {
      std::erase_if(batched_, [](const auto& weak) { return weak.expired(); });
      batched_.push_back(entry);
    }
    auto& slot = registry_[cipher];
    replaced = std::move(slot);
    slot = std::move(entry);
  }
  return cipher;
}

crypto::CipherId Engine::load_artifact(const std::string& path) {
  // Load first: the model's cipher id names its instruments.
  return add_model(api::load_artifact(path));
}

crypto::CipherId Engine::add_model(core::CoLocator&& locator) {
  const auto cipher = locator.config().params.cipher;
  return register_entry(std::make_shared<detail::ModelEntry>(
      std::move(locator), pool_, config_,
      "engine." + metric_model_name(cipher)));
}

crypto::CipherId Engine::attach_model(const core::CoLocator& locator) {
  const auto cipher = locator.config().params.cipher;
  return register_entry(std::make_shared<detail::ModelEntry>(
      locator, pool_, config_, "engine." + metric_model_name(cipher)));
}

std::string Engine::telemetry_text() const {
  return config_.registry ? config_.registry->render_text()
                          : "(telemetry off: Engine built without a registry)\n";
}

std::string Engine::telemetry_json() const {
  return config_.registry ? config_.registry->render_json() : "{}";
}

Session Engine::open_session(crypto::CipherId cipher) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = registry_.find(cipher);
  scalocate::detail::require(it != registry_.end(),
                  "Engine::open_session: no model registered for cipher " +
                      crypto::cipher_display_name(cipher));
  return Session(it->second);
}

Session Engine::open_session() const {
  std::lock_guard<std::mutex> lock(mutex_);
  scalocate::detail::require(registry_.size() == 1,
                  "Engine::open_session(): engine serves " +
                      std::to_string(registry_.size()) +
                      " models; select one by cipher id");
  return Session(registry_.begin()->second);
}

bool Engine::has_model(crypto::CipherId cipher) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return registry_.count(cipher) > 0;
}

std::vector<ModelInfo> Engine::models() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ModelInfo> out;
  out.reserve(registry_.size());
  for (const auto& [cipher, entry] : registry_) {
    ModelInfo info;
    info.cipher = cipher;
    info.display_name = crypto::cipher_display_name(cipher);
    info.n_inf = entry->locator->config().params.n_inf;
    info.stride = entry->locator->config().params.stride;
    info.calibration_offset = entry->locator->calibration_offset();
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace scalocate::api

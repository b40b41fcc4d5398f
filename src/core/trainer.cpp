#include "core/trainer.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "nn/dataloader.hpp"
#include "nn/eval_plan.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"

namespace scalocate::core {

Trainer::Trainer(const PipelineParams& params, std::uint64_t seed)
    : params_(params), seed_(seed) {}

std::pair<double, ConfusionMatrix> Trainer::evaluate(
    nn::Sequential& model, const WindowDataset& data) const {
  model.set_training(false);
  ConfusionMatrix cm;
  if (data.size() == 0) return {0.0, cm};
  detail::require(params_.batch_size >= 1,
                  "Trainer::evaluate: batch_size must be >= 1");
  detail::require(data.labels.size() == data.size(),
                  "Trainer::evaluate: windows/labels size mismatch");
  // The scoring path's eval plan over the stored (already standardized)
  // windows, in order, batch_size at a time.
  const std::size_t length = data.windows.front().size();
  const nn::EvalPlan plan(model, 1, length);
  nn::SoftmaxCrossEntropy loss_fn;
  nn::Workspace ws;
  double loss_acc = 0.0;
  std::size_t batches = 0;
  std::vector<std::uint8_t> labels;
  for (std::size_t first = 0; first < data.size();
       first += params_.batch_size) {
    const std::size_t n = std::min(params_.batch_size, data.size() - first);
    float* inputs = plan.input(n, ws);
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<float>& w = data.windows[first + i];
      detail::require(w.size() == length,
                      "Trainer::evaluate: ragged window lengths");
      std::copy(w.begin(), w.end(), inputs + i * length);
    }
    const float* out = plan.run(n, ws);
    nn::Tensor logits({n, plan.output_size()});
    std::copy(out, out + logits.numel(), logits.data());
    const auto label_at =
        data.labels.begin() + static_cast<std::ptrdiff_t>(first);
    labels.assign(label_at, label_at + static_cast<std::ptrdiff_t>(n));
    loss_acc += static_cast<double>(loss_fn.forward(logits, labels));
    ++batches;
    for (std::size_t b = 0; b < n; ++b) {
      const std::uint8_t pred =
          logits.at(b, 1) > logits.at(b, 0) ? std::uint8_t{1} : std::uint8_t{0};
      cm.add(labels[b], pred);
    }
  }
  return {loss_acc / static_cast<double>(batches), cm};
}

TrainReport Trainer::fit(nn::Sequential& model,
                         const DatasetSplit& split) const {
  detail::require(split.train.size() > 0, "Trainer::fit: empty training set");
  detail::require(split.val.size() > 0, "Trainer::fit: empty validation set");

  nn::DataLoader loader(split.train.windows, split.train.labels,
                        params_.batch_size, seed_ ^ 0x7368756666ULL);
  nn::SoftmaxCrossEntropy loss_fn;
  nn::Workspace ws;
  nn::Adam optimizer(model.params(), params_.learning_rate);

  TrainReport report;
  report.best_val_loss = std::numeric_limits<double>::infinity();
  nn::ModuleState best_state = nn::snapshot_module(model);

  for (std::size_t epoch = 0; epoch < params_.epochs; ++epoch) {
    model.set_training(true);
    loader.start_epoch();
    double train_loss_acc = 0.0;
    std::size_t batches = 0;
    nn::Batch batch;
    while (loader.next(batch)) {
      optimizer.zero_grad();
      nn::Tensor logits = model.forward(batch.inputs, ws);
      train_loss_acc +=
          static_cast<double>(loss_fn.forward(logits, batch.labels));
      model.backward(loss_fn.backward(), ws);
      optimizer.step();
      ++batches;
    }

    EpochStats stats;
    stats.train_loss =
        batches > 0 ? train_loss_acc / static_cast<double>(batches) : 0.0;
    auto [val_loss, val_cm] = evaluate(model, split.val);
    stats.val_loss = val_loss;
    stats.val_accuracy = val_cm.accuracy();
    report.epochs.push_back(stats);

    if (val_loss < report.best_val_loss) {
      report.best_val_loss = val_loss;
      report.best_epoch = epoch;
      best_state = nn::snapshot_module(model);
    }
  }

  nn::restore_module(model, best_state);
  if (split.test.size() > 0) {
    auto [test_loss, test_cm] = evaluate(model, split.test);
    (void)test_loss;
    report.test_confusion = test_cm;
  }
  model.set_training(false);
  return report;
}

}  // namespace scalocate::core

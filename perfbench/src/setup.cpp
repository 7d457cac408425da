#include "setup.hpp"

#include <algorithm>
#include <cstring>

#include "common.hpp"
#include "runtime/compile_models.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

using pit::index_t;
using pit::Tensor;

namespace {
constexpr std::uint64_t kWeightSeed = 17;   // fixed: the served function
constexpr std::uint64_t kBnWarmSeed = 4242;  // fixed BN warm-up windows
constexpr index_t kChunk = 8;  // module-forward batch: small, so the
                               // references stay below the peak RSS

/// Copies rows [first, first + n) of an (N, C, T) tensor.
Tensor rows(const Tensor& x, index_t first, index_t n) {
  const index_t per = x.numel() / x.dim(0);
  Tensor out = Tensor::empty(pit::Shape{n, x.dim(1), x.dim(2)});
  std::memcpy(out.data(), x.data() + first * per,
              static_cast<std::size_t>(n * per) * sizeof(float));
  return out;
}

/// Runs `fn` over chunks of the batch and concatenates the outputs.
template <typename Fn>
Tensor chunked(const Tensor& inputs, Fn&& fn) {
  const index_t n = inputs.dim(0);
  std::vector<Tensor> parts;
  index_t per_out = 0;
  for (index_t b = 0; b < n; b += kChunk) {
    parts.push_back(fn(rows(inputs, b, std::min(kChunk, n - b))));
    per_out = parts.back().numel() / parts.back().dim(0);
  }
  pit::Shape shape = parts.front().shape();
  std::vector<index_t> dims;
  for (int i = 0; i < shape.rank(); ++i) {
    dims.push_back(shape.dim(i));
  }
  dims[0] = n;
  Tensor out = Tensor::empty(pit::Shape(dims));
  float* dst = out.data();
  for (const Tensor& p : parts) {
    std::memcpy(dst, p.data(), static_cast<std::size_t>(p.numel()) * 4);
    dst += p.dim(0) * per_out;
  }
  return out;
}
}  // namespace

pit::models::TempoNetConfig paper_config() { return {}; }

std::unique_ptr<pit::data::PpgDaliaDataset> make_ppg(index_t windows,
                                                     index_t window_len,
                                                     std::uint64_t seed) {
  pit::data::PpgDaliaOptions opts;
  opts.num_windows = windows;
  opts.window_len = window_len;
  opts.seed = seed;
  return std::make_unique<pit::data::PpgDaliaDataset>(opts);
}

std::unique_ptr<pit::models::TempoNet> make_served_temponet() {
  const pit::models::TempoNetConfig cfg = paper_config();
  pit::RandomEngine rng(kWeightSeed);
  auto model = std::make_unique<pit::models::TempoNet>(
      cfg, pit::models::dilated_conv_factory(rng, cfg.dilations), rng);
  const auto warm = make_ppg(64, cfg.input_length, kBnWarmSeed);
  pit::data::DataLoader loader(*warm, 16, /*shuffle=*/false);
  model->train();
  {
    pit::NoGradGuard no_grad;
    for (index_t b = 0; b < loader.num_batches(); ++b) {
      model->forward(loader.batch(b).inputs);
    }
  }
  model->eval();
  return model;
}

Tensor stack_windows(const pit::data::Dataset& ds) {
  std::vector<Tensor> items;
  items.reserve(static_cast<std::size_t>(ds.size()));
  for (index_t i = 0; i < ds.size(); ++i) {
    items.push_back(ds.get(i).input);
  }
  return pit::data::stack_examples(items);
}

Tensor module_forward(pit::models::TempoNet& model, const Tensor& inputs) {
  pit::NoGradGuard no_grad;
  model.eval();
  return chunked(inputs, [&](const Tensor& x) { return model.forward(x); });
}

Tensor module_backbone(pit::models::TempoNet& model, const Tensor& inputs) {
  pit::NoGradGuard no_grad;
  model.eval();
  const std::vector<pit::nn::Module*> convs = model.temporal_convs();
  return chunked(inputs, [&](const Tensor& in) {
    Tensor x = in;
    for (std::size_t i = 0; i < convs.size(); ++i) {
      // norm() hands out a const view of a batch-norm the model owns
      // mutably; eval-mode forward reads its running statistics only.
      auto& bn = const_cast<pit::nn::BatchNorm1d&>(model.norm(i));
      x = pit::relu(bn.forward(convs[i]->forward(x)));
    }
    return x;
  });
}

pit::runtime::PlanHandle register_window_plan(
    const std::shared_ptr<pit::runtime::PlanRegistry>& registry,
    const pit::models::TempoNet& model) {
  registry->register_version(
      "temponet", pit::runtime::weights_fingerprint(model),
      "temponet:window:" + std::to_string(model.config().input_length),
      [&model](pit::runtime::WeightPool& pool) {
        return pit::runtime::compile_plan(model, &pool);
      });
  return pit::runtime::PlanHandle(registry, "temponet");
}

pit::runtime::PlanHandle register_int8_backbone(
    const std::shared_ptr<pit::runtime::PlanRegistry>& registry,
    const pit::models::TempoNet& model, const pit::data::DataLoader& calib,
    double& calibrate_ms) {
  const index_t steps = model.config().input_length;
  const std::uint64_t version = registry->register_version(
      "backbone", pit::runtime::weights_fingerprint(model),
      "temponet:stream:" + std::to_string(steps),
      [&model, steps](pit::runtime::WeightPool& pool) {
        return pit::runtime::compile_stream_backbone(model, steps, &pool);
      });
  const auto t0 = Clock::now();
  registry->quantized("backbone", version, calib);
  calibrate_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  return pit::runtime::PlanHandle(registry, "backbone",
                                  pit::runtime::PlanDtype::kInt8);
}

}  // namespace perfbench

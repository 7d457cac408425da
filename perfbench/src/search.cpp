// pit_search: a sequential lambda sweep of PitTrainer::run (the paper's
// Algorithm 1) over a bench-scale searchable TEMPONet on synthetic
// PPG-Dalia windows, then pareto_front over the resulting points.
//
// Every run has a fixed epoch budget and a patience past that budget, so
// early stopping never changes the amount of work: each run trains
// kEpochs * kTrainWindows samples. The sweep repeats in whole rounds
// (every lambda once per round) until the run's time is used up. No
// runtime, serve or net code runs here.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>

#include "checks.hpp"
#include "core/network_export.hpp"
#include "core/pit_conv1d.hpp"
#include "core/regularizer.hpp"
#include "core/search.hpp"
#include "core/trainer.hpp"
#include "nn/losses.hpp"
#include "nn/optim.hpp"
#include "setup.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace pit;

constexpr index_t kTrainWindows = 128;
constexpr index_t kValWindows = 32;
constexpr index_t kBatch = 32;
constexpr index_t kWindowLen = 64;  // 2 s at 32 Hz
const std::vector<double> kLambdas = {1e-4, 1e-3, 1e-2, 1e-1};
constexpr int kWarmupEpochs = 2;
constexpr int kPruneEpochs = 6;
constexpr int kFinetuneEpochs = 2;
constexpr int kEpochs = kWarmupEpochs + kPruneEpochs + kFinetuneEpochs;
/// Set-up here is milliseconds of data synthesis; more repetitions keep
/// its median steady.
constexpr int kSearchSetupReps = 25;
/// Export parity: the plain network sums the same taps in another order.
constexpr double kExportRelTol = 1e-4;

models::TempoNetConfig search_config() {
  models::TempoNetConfig cfg;
  cfg.input_length = kWindowLen;
  cfg.channel_scale = 0.25;  // channels 8 / 16 / 32
  return cfg;
}

core::PitTrainerOptions trainer_options(double lambda) {
  core::PitTrainerOptions o;
  o.lambda = lambda;
  o.warmup_epochs = kWarmupEpochs;
  o.max_prune_epochs = kPruneEpochs;
  o.finetune_epochs = kFinetuneEpochs;
  o.patience = kEpochs + 1;  // past the budget: no early stop
  o.lr_weights = 2e-3;
  o.lr_gamma = 1e-1;
  return o;
}

core::LossFn mae() {
  return [](const Tensor& pred, const Tensor& target) {
    return nn::mae_loss(pred, target);
  };
}

struct Data {
  std::unique_ptr<data::PpgDaliaDataset> dataset;
  std::unique_ptr<data::SubsetDataset> train_view, val_view;
  std::unique_ptr<data::DataLoader> train, val;
  Tensor val_inputs;
  double setup_s = 0.0;
};

std::unique_ptr<Data> make_data(std::uint64_t seed) {
  const double t0 = now_s();
  auto d = std::make_unique<Data>();
  d->dataset = make_ppg(kTrainWindows + kValWindows, kWindowLen, seed);
  d->train_view =
      std::make_unique<data::SubsetDataset>(*d->dataset, 0, kTrainWindows);
  d->val_view = std::make_unique<data::SubsetDataset>(
      *d->dataset, kTrainWindows, kValWindows);
  d->train = std::make_unique<data::DataLoader>(*d->train_view, kBatch, true,
                                                mix64(seed ^ 0x7EA1ULL));
  d->val = std::make_unique<data::DataLoader>(*d->val_view, kBatch, false);
  d->val_inputs = stack_windows(*d->val_view);
  d->setup_s = now_s() - t0;
  return d;
}

/// A fresh searchable TEMPONet for sweep point `point`.
core::PitModelBundle make_bundle(std::uint64_t seed, std::size_t point) {
  RandomEngine rng(mix64(seed * 131 + point));
  core::PitModelBundle bundle;
  std::vector<core::PITConv1d*> layers;
  bundle.model = std::make_unique<models::TempoNet>(
      search_config(), core::pit_conv_factory(rng, layers), rng);
  bundle.pit_layers = std::move(layers);
  return bundle;
}

/// Eval-mode output of a model on `x`, without a tape.
Tensor eval_forward(nn::Module& model, const Tensor& x) {
  NoGradGuard no_grad;
  model.eval();
  return model.forward(x);
}

/// Runs the independent checks on one finished sweep point. The
/// self-test corrupts the exported network through `after_export`.
void check_point(
    core::PitModelBundle& bundle, const core::PitTrainingResult& r,
    double untrained_loss, index_t reported_params, const Tensor& val_inputs,
    RunResult& res,
    const std::function<void(models::TempoNet&)>& after_export = {}) {
  std::vector<index_t> rf;
  for (const core::PITConv1d* l : bundle.pit_layers) {
    rf.push_back(l->rf_max());
  }
  std::string msg = check_dilations(r.dilations, rf);
  if (!msg.empty()) {
    res.fail_check(msg);
    return;  // the plain network cannot be built from bad dilations
  }
  RandomEngine rng(1);
  models::TempoNet plain(search_config(),
                         models::dilated_conv_factory(rng, r.dilations), rng);
  core::export_weights(*bundle.model, bundle.pit_layers, plain);
  if (after_export) {
    after_export(plain);
  }
  const Tensor want = eval_forward(*bundle.model, val_inputs);
  const Tensor got = eval_forward(plain, val_inputs);
  double diff = 0.0, scale = 1.0;
  for (index_t i = 0; i < want.numel(); ++i) {
    diff = std::max(diff, std::fabs(static_cast<double>(got.data()[i]) -
                                    want.data()[i]));
    scale = std::max(scale, std::fabs(static_cast<double>(want.data()[i])));
  }
  msg = check_export(diff, kExportRelTol * scale);
  if (!msg.empty()) {
    res.fail_check(msg);
  }
  index_t counted = 0;
  for (const Tensor& p : plain.parameters()) {
    counted += p.numel();
  }
  msg = check_params(reported_params, counted);
  if (!msg.empty()) {
    res.fail_check(msg);
  }
  msg = check_val_loss(r.val_loss, untrained_loss);
  if (!msg.empty()) {
    res.fail_check(msg);
  }
}

struct PointRun {
  core::SearchPoint point;
  core::PitTrainingResult result;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  index_t samples = 0;
};

/// One sweep point: build, train (timed), check.
PointRun run_point(const Data& d, std::uint64_t seed, std::size_t i,
                   RunResult* res) {
  core::PitModelBundle bundle = make_bundle(seed, i);
  const double untrained = core::evaluate_loss(*bundle.model, mae(), *d.val);
  core::PitTrainer trainer(*bundle.model, bundle.pit_layers, mae(),
                           trainer_options(kLambdas[i]));
  PointRun out;
  const double c0 = cpu_seconds();
  const double t0 = now_s();
  out.result = trainer.run(*d.train, *d.val);
  out.wall_s = now_s() - t0;
  out.cpu_s = cpu_seconds() - c0;
  Trace::instance().record("core.pit_trainer_run", i + 1, t0, t0 + out.wall_s);
  out.samples =
      static_cast<index_t>(out.result.history.size()) * kTrainWindows;
  out.point.lambda = kLambdas[i];
  out.point.warmup_epochs = kWarmupEpochs;
  out.point.dilations = out.result.dilations;
  out.point.searchable_params = out.result.searchable_params;
  out.point.val_loss = out.result.val_loss;
  out.point.seconds = out.wall_s;
  out.point.total_params = models::TempoNet::params_with_dilations(
      search_config(), out.result.dilations);
  if (res != nullptr) {
    check_point(bundle, out.result, untrained, out.point.total_params,
                d.val_inputs, *res);
  }
  return out;
}

}  // namespace

RunResult run_pit_search(const RunOptions& opt) {
  RunResult res;
  std::vector<double> setups;
  std::unique_ptr<Data> d;
  for (int r = 0; r < kSearchSetupReps; ++r) {
    d.reset();
    d = make_data(opt.seed);
    setups.push_back(d->setup_s);
  }
  PhaseReport phase;
  phase.name = "sweep";
  std::vector<double> run_ms, rates;
  double cpu = 0.0;
  index_t samples = 0;
  const double start = now_s();
  double round_s = 0.0;
  int rounds = 0;
  while (rounds == 0 || now_s() - start + round_s <= opt.seconds) {
    const double r0 = now_s();
    std::vector<core::SearchPoint> points;
    for (std::size_t i = 0; i < kLambdas.size(); ++i) {
      ++phase.attempted;
      PointRun p = run_point(*d, opt.seed, i, &res);
      ++phase.completed;
      run_ms.push_back(p.wall_s * 1e3);
      rates.push_back(static_cast<double>(p.samples) / p.wall_s);
      cpu += p.cpu_s;
      samples += p.samples;
      points.push_back(p.point);
      if (rounds == 0) {
        std::printf("pit_search: lambda %.0e -> dilations", p.point.lambda);
        for (index_t dil : p.point.dilations) {
          std::printf(" %lld", static_cast<long long>(dil));
        }
        std::printf(", %lld params, val loss %.3f, %.0f ms\n",
                    static_cast<long long>(p.point.total_params),
                    p.point.val_loss, p.wall_s * 1e3);
      }
    }
    const std::string msg = check_pareto(core::pareto_front(points));
    if (!msg.empty()) {
      res.fail_check(msg);
    }
    round_s = now_s() - r0;
    ++rounds;
  }
  phase.seconds = now_s() - start;
  res.phases = {phase};
  res.end_to_end.set("setup_s", median(setups), "s");
  res.end_to_end.set("p50_ms", median(run_ms), "ms");
  res.end_to_end.set("ops_per_s", median(rates), "1/s");
  res.end_to_end.set("cpu_us_per_op",
                     cpu * 1e6 / static_cast<double>(samples), "us");
  res.end_to_end.set("peak_rss_mb", peak_rss_mb(), "MiB");
  std::printf("pit_search: %d rounds of %zu lambdas, %lld training samples\n",
              rounds, kLambdas.size(), static_cast<long long>(samples));
  return res;
}

namespace {

/// Median wall time of fn() over `reps` calls after one warm-up, us.
template <typename Fn>
double median_us(int reps, Fn&& fn) {
  fn();
  std::vector<double> us;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    fn();
    us.push_back((now_s() - t0) * 1e6);
  }
  return median(us);
}

}  // namespace

void probe_search(const RunOptions& opt, Metrics& m) {
  const auto d = make_data(opt.seed);
  m.set("data.batch_us", median_us(200, [&] { d->train->batch(1); }), "us");

  // One training step of the sweep's model, split at the layer calls.
  core::PitModelBundle bundle = make_bundle(opt.seed, 1);
  bundle.model->train();
  nn::Adam adam(bundle.model->parameters(), 2e-3);
  std::vector<double> fwd, bwd, step;
  for (int i = 0; i < 41; ++i) {
    const data::Batch batch =
        d->train->batch(i % d->train->num_batches());
    bundle.model->zero_grad();
    const double t0 = now_s();
    Tensor loss = nn::mae_loss(bundle.model->forward(batch.inputs),
                               batch.targets);
    const double t1 = now_s();
    loss.backward();
    const double t2 = now_s();
    adam.step();
    const double t3 = now_s();
    if (i > 0) {  // the first step grows every buffer
      fwd.push_back((t1 - t0) * 1e3);
      bwd.push_back((t2 - t1) * 1e3);
      step.push_back((t3 - t2) * 1e3);
    }
  }
  m.set("nn.train_fwd_ms", median(fwd), "ms");
  m.set("tensor.backward_ms", median(bwd), "ms");
  m.set("nn.adam_step_ms", median(step), "ms");

  // PITConv1d against a plain Conv1d of the same geometry: block 2's
  // first searchable conv (16 -> 16 channels, rf_max 9) on 32-step inputs,
  // one training minibatch, autograd on as in the search.
  const core::PITConv1d& ref = *bundle.pit_layers[3];
  RandomEngine rng(3);
  core::PITConv1d pit_conv(ref.in_channels(), ref.out_channels(),
                           ref.rf_max(), core::PitConv1dOptions{}, rng);
  nn::Conv1d conv(ref.in_channels(), ref.out_channels(), ref.rf_max(),
                  nn::Conv1dOptions{}, rng);
  const Tensor x =
      Tensor::randn(Shape{kBatch, ref.in_channels(), kWindowLen / 2}, rng);
  m.set("core.pit_conv_fwd_us", median_us(200, [&] { pit_conv.forward(x); }),
        "us");
  m.set("nn.conv_fwd_us", median_us(200, [&] { conv.forward(x); }), "us");
  m.set("core.regularizer_us", median_us(200, [&] {
          Tensor reg = core::size_regularizer(bundle.pit_layers, 1e-3);
          reg.backward();
        }),
        "us");

  const PointRun p = run_point(*d, opt.seed, 1, nullptr);
  m.set("core.warmup_s", p.result.warmup_seconds, "s");
  m.set("core.prune_s", p.result.prune_seconds, "s");
  m.set("core.finetune_s", p.result.finetune_seconds, "s");
}

bool selftest_search(std::vector<std::string>& log) {
  const auto d = make_data(1);
  core::PitModelBundle bundle = make_bundle(1, 1);
  const double untrained = core::evaluate_loss(*bundle.model, mae(), *d->val);
  core::PitTrainer trainer(*bundle.model, bundle.pit_layers, mae(),
                           trainer_options(kLambdas[1]));
  const core::PitTrainingResult r = trainer.run(*d->train, *d->val);
  const index_t params =
      models::TempoNet::params_with_dilations(search_config(), r.dilations);
  bool ok = true;
  RunResult genuine;
  check_point(bundle, r, untrained, params, d->val_inputs, genuine);
  ok &= expect_accepted(log, "search: genuine sweep point", genuine);

  core::PitTrainingResult bad = r;
  bad.dilations[2] = 3;
  RunResult dil;
  check_point(bundle, bad, untrained, params, d->val_inputs, dil);
  ok &= expect_rejected(log, "search: a dilation of 3", dil, kCheckDilation);

  RunResult count;
  check_point(bundle, r, untrained, params + 1, d->val_inputs, count);
  ok &= expect_rejected(log, "search: a parameter count off by one", count,
                        kCheckParams);

  RunResult loss;
  check_point(bundle, r, r.val_loss - 1.0, params, d->val_inputs, loss);
  ok &= expect_rejected(log, "search: a final loss above the untrained one",
                        loss, kCheckValLoss);

  RunResult exp;
  check_point(bundle, r, untrained, params, d->val_inputs, exp,
              [](models::TempoNet& plain) {
                plain.parameters().front().data()[0] += 1.0F;
              });
  ok &= expect_rejected(log, "search: one exported weight changed", exp,
                        kCheckExport);

  std::vector<core::SearchPoint> front(2);
  front[0].total_params = 100;
  front[0].val_loss = 1.0;
  front[1].total_params = 200;
  front[1].val_loss = 2.0;  // dominated by front[0]
  RunResult pareto;
  const std::string msg = check_pareto(front);
  if (!msg.empty()) {
    pareto.fail_check(msg);
  }
  ok &= expect_rejected(log, "search: a dominated point on the front", pareto,
                        kCheckPareto);
  return ok;
}

}  // namespace perfbench

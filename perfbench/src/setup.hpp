// The models and inputs every workload is built from.
//
// The served network is the paper-size TEMPONet (4 x 256 windows: 8 s of
// PPG + 3-axis accelerometer at 32 Hz, channels 32/64/128) with its
// hand-tuned dilations (2, 2, 1, 4, 4, 8, 8). Its weights come from a fixed
// seed and its batch-norm statistics are warmed on a fixed synthetic
// PPG-Dalia set, so every run and every commit serves the same function.
// Only the request inputs derive from the workload seed.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "data/dataloader.hpp"
#include "data/ppg_dalia.hpp"
#include "models/temponet.hpp"
#include "runtime/plan_registry.hpp"

namespace perfbench {

/// Paper-size TEMPONet geometry (the library defaults).
pit::models::TempoNetConfig paper_config();

/// Synthetic PPG-Dalia windows of `window_len` steps.
std::unique_ptr<pit::data::PpgDaliaDataset> make_ppg(pit::index_t windows,
                                                     pit::index_t window_len,
                                                     std::uint64_t seed);

/// The served TEMPONet: fixed-seed weights, BN warmed, in eval mode.
std::unique_ptr<pit::models::TempoNet> make_served_temponet();

/// Windows of a dataset as one (N, C, T) tensor.
pit::Tensor stack_windows(const pit::data::Dataset& ds);

/// Eval-mode module forward (autograd path, no runtime) in chunks.
pit::Tensor module_forward(pit::models::TempoNet& model,
                           const pit::Tensor& inputs);

/// Eval-mode module forward of the seven BN + ReLU temporal convs only —
/// the fp32 reference of the streaming backbone — on (N, C, T) inputs.
pit::Tensor module_backbone(pit::models::TempoNet& model,
                            const pit::Tensor& inputs);

/// Registers the windowed fp32 plan as model "temponet" and returns its
/// handle (cold compile + NetBuilder's always-on verification).
pit::runtime::PlanHandle register_window_plan(
    const std::shared_ptr<pit::runtime::PlanRegistry>& registry,
    const pit::models::TempoNet& model);

/// Registers the streaming backbone as model "backbone" and materializes
/// its int8 lowering, calibrated on `calib` (timed into `calibrate_ms`).
/// Returns the int8 handle.
pit::runtime::PlanHandle register_int8_backbone(
    const std::shared_ptr<pit::runtime::PlanRegistry>& registry,
    const pit::models::TempoNet& model, const pit::data::DataLoader& calib,
    double& calibrate_ms);

}  // namespace perfbench

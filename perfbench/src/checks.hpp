// Independent output checks. Each returns an empty string on success and
// otherwise a message that starts with the check's name. None compares
// against stored outputs: every reference is recomputed from the inputs
// by another code path (module forward, batched int8 forward, formula).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/search.hpp"
#include "tensor/shape.hpp"

namespace perfbench {

inline constexpr const char* kCheckSubmit = "submit.result_matches_module";
inline constexpr const char* kCheckStreamExact =
    "stream.step_equals_int8_forward";
inline constexpr const char* kCheckStreamFp32 =
    "stream.step_near_fp32_backbone";
inline constexpr const char* kCheckDilation = "search.dilation_pow2_within_rf";
inline constexpr const char* kCheckExport = "search.export_matches_pit_eval";
inline constexpr const char* kCheckParams = "search.params_match_network";
inline constexpr const char* kCheckValLoss = "search.val_loss_below_untrained";
inline constexpr const char* kCheckPareto = "search.pareto_non_dominated";

/// Relative tolerance of a RESULT against the module forward: the runtime
/// folds batch-norm and reorders the float sums, nothing more.
inline constexpr double kSubmitRelTol = 1e-4;

/// RESULT `got` (out_dim floats) of a request on window `window` against
/// `ref` (one out_dim row per window): |got - ref| <= tol * max(1, |ref|).
std::string check_submit_result(std::uint64_t request, std::size_t window,
                                const float* got, const float* ref,
                                std::size_t out_dim);

/// STEP outputs of one session of a device, `steps` rows of `c_out` floats
/// (row t = output of the t-th step after the open), against the batched
/// int8 forward of the same inputs, (c_out, t_plan) channel-major. Causal
/// streaming equals the sliding window, so they must be bit-identical.
std::string check_stream_exact(std::uint64_t device, const float* got,
                               const float* batched, pit::index_t steps,
                               pit::index_t c_out, pit::index_t t_plan);

/// The same outputs against the fp32 module backbone, within `tol`.
std::string check_stream_fp32(std::uint64_t device, const float* got,
                              const float* fp32, pit::index_t steps,
                              pit::index_t c_out, pit::index_t t_plan,
                              double tol);

std::string check_dilations(const std::vector<pit::index_t>& dilations,
                            const std::vector<pit::index_t>& rf_max);
std::string check_export(double max_abs_diff, double tol);
std::string check_params(pit::index_t reported, pit::index_t counted);
std::string check_val_loss(double trained, double untrained);
std::string check_pareto(const std::vector<pit::core::SearchPoint>& front);

}  // namespace perfbench

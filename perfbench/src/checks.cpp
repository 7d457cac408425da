#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

namespace perfbench {

using pit::index_t;

std::string check_submit_result(std::uint64_t request, std::size_t window,
                                const float* got, const float* ref,
                                std::size_t out_dim) {
  for (std::size_t j = 0; j < out_dim; ++j) {
    const double want = ref[j];
    const double err = std::fabs(static_cast<double>(got[j]) - want);
    if (!(err <= kSubmitRelTol * std::max(1.0, std::fabs(want)))) {
      std::ostringstream os;
      os << kCheckSubmit << ": request " << request << " (window " << window
         << ") output " << j << " = " << got[j] << ", module forward gives "
         << want << " (|diff| " << err << " > rel tol " << kSubmitRelTol
         << ")";
      return os.str();
    }
  }
  return {};
}

std::string check_stream_exact(std::uint64_t device, const float* got,
                               const float* batched, index_t steps,
                               index_t c_out, index_t t_plan) {
  for (index_t t = 0; t < steps; ++t) {
    for (index_t c = 0; c < c_out; ++c) {
      const float g = got[t * c_out + c];
      const float w = batched[c * t_plan + t];
      if (std::memcmp(&g, &w, sizeof(float)) != 0) {
        std::ostringstream os;
        os << kCheckStreamExact << ": device " << device << " step " << t
           << " channel " << c << " streamed " << g
           << " but the batched int8 forward gives " << w;
        return os.str();
      }
    }
  }
  return {};
}

std::string check_stream_fp32(std::uint64_t device, const float* got,
                              const float* fp32, index_t steps, index_t c_out,
                              index_t t_plan, double tol) {
  for (index_t t = 0; t < steps; ++t) {
    for (index_t c = 0; c < c_out; ++c) {
      const double err = std::fabs(static_cast<double>(got[t * c_out + c]) -
                                   fp32[c * t_plan + t]);
      if (!(err <= tol)) {
        std::ostringstream os;
        os << kCheckStreamFp32 << ": device " << device << " step " << t
           << " channel " << c << " |int8 - fp32 module| = " << err
           << " > " << tol;
        return os.str();
      }
    }
  }
  return {};
}

std::string check_dilations(const std::vector<index_t>& dilations,
                            const std::vector<index_t>& rf_max) {
  if (dilations.size() != rf_max.size()) {
    return std::string(kCheckDilation) + ": " +
           std::to_string(dilations.size()) + " dilations for " +
           std::to_string(rf_max.size()) + " layers";
  }
  for (std::size_t i = 0; i < dilations.size(); ++i) {
    const index_t d = dilations[i];
    if (d < 1 || (d & (d - 1)) != 0 || d > rf_max[i]) {
      std::ostringstream os;
      os << kCheckDilation << ": layer " << i << " dilation " << d
         << " is not a power of two within rf_max " << rf_max[i];
      return os.str();
    }
  }
  return {};
}

std::string check_export(double max_abs_diff, double tol) {
  if (max_abs_diff <= tol) {
    return {};
  }
  std::ostringstream os;
  os << kCheckExport << ": exported plain network differs from the PIT "
     << "model's eval output by " << max_abs_diff << " > " << tol;
  return os.str();
}

std::string check_params(index_t reported, index_t counted) {
  if (reported == counted) {
    return {};
  }
  std::ostringstream os;
  os << kCheckParams << ": reported " << reported
     << " parameters, the exported network holds " << counted;
  return os.str();
}

std::string check_val_loss(double trained, double untrained) {
  if (trained < untrained) {
    return {};
  }
  std::ostringstream os;
  os << kCheckValLoss << ": final validation loss " << trained
     << " is not below the untrained model's " << untrained;
  return os.str();
}

std::string check_pareto(const std::vector<pit::core::SearchPoint>& front) {
  for (std::size_t i = 0; i < front.size(); ++i) {
    for (std::size_t j = 0; j < front.size(); ++j) {
      const auto& a = front[i];
      const auto& b = front[j];
      const bool no_worse =
          a.total_params <= b.total_params && a.val_loss <= b.val_loss;
      const bool better =
          a.total_params < b.total_params || a.val_loss < b.val_loss;
      if (i != j && no_worse && better) {
        std::ostringstream os;
        os << kCheckPareto << ": point " << i << " (" << a.total_params
           << " params, loss " << a.val_loss << ") dominates point " << j
           << " (" << b.total_params << " params, loss " << b.val_loss << ")";
        return os.str();
      }
    }
  }
  return {};
}

}  // namespace perfbench

#include "df3/core/fleet_kernel.hpp"

namespace df3::core::fleet {

void step_rooms_1r1c(std::size_t n, double t_out_c,
                     const double* __restrict q_total_w,
                     const double* __restrict resistance_k_per_w,
                     const double* __restrict decay,
                     double* __restrict temp_c) {
  // Blocked main loop: the fixed trip count lets the vectorizer emit full
  // vector iterations without a runtime prologue check per element.
  std::size_t i = 0;
  for (; i + kKernelStride <= n; i += kKernelStride) {
    for (std::size_t l = 0; l < kKernelStride; ++l) {
      const std::size_t j = i + l;
      const double eq = t_out_c + q_total_w[j] * resistance_k_per_w[j];
      temp_c[j] = eq + (temp_c[j] - eq) * decay[j];
    }
  }
  // Scalar tail: same expressions, element-wise, so the seam is bit-free.
  for (; i < n; ++i) {
    const double eq = t_out_c + q_total_w[i] * resistance_k_per_w[i];
    temp_c[i] = eq + (temp_c[i] - eq) * decay[i];
  }
}

namespace {

/// One explicit-Euler substep of length `h` over the whole slice. Mirrors
/// the step lambda of thermal::Room2R2C::advance term for term.
inline void substep_2r2c(std::size_t n, double t_out_c, double h,
                         const double* __restrict q_total_w,
                         const double* __restrict r_air_env,
                         const double* __restrict r_env_out,
                         const double* __restrict c_air,
                         const double* __restrict c_env,
                         double* __restrict t_air_c,
                         double* __restrict t_env_c) {
  for (std::size_t i = 0; i < n; ++i) {
    const double flow_ae = (t_air_c[i] - t_env_c[i]) / r_air_env[i];
    const double flow_eo = (t_env_c[i] - t_out_c) / r_env_out[i];
    t_air_c[i] += h * ((q_total_w[i] - flow_ae) / c_air[i]);
    t_env_c[i] += h * ((flow_ae - flow_eo) / c_env[i]);
  }
}

}  // namespace

void step_rooms_2r2c(std::size_t n, double t_out_c,
                     const double* __restrict q_total_w,
                     const double* __restrict r_air_env,
                     const double* __restrict r_env_out,
                     const double* __restrict c_air,
                     const double* __restrict c_env,
                     double max_step_s, double h_last_s, std::uint32_t n_full,
                     double* __restrict t_air_c,
                     double* __restrict t_env_c) {
  for (std::uint32_t k = 0; k < n_full; ++k) {
    substep_2r2c(n, t_out_c, max_step_s, q_total_w, r_air_env, r_env_out, c_air, c_env,
                 t_air_c, t_env_c);
  }
  if (h_last_s > 0.0) {
    substep_2r2c(n, t_out_c, h_last_s, q_total_w, r_air_env, r_env_out, c_air, c_env,
                 t_air_c, t_env_c);
  }
}

}  // namespace df3::core::fleet

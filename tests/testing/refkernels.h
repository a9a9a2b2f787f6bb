/**
 * @file
 * Double-precision, single-threaded reference implementations of the
 * hot kernels, plus the ULP-budget comparison machinery.
 *
 * The differential tests run every dispatched production backend
 * (generic/AVX2/AVX-512 GEMM, any thread count) against these
 * references. Each reference is derived independently from the
 * mathematical definition — e.g. conv2d is a direct convolution, not
 * an im2col+GEMM — so a bug shared by a production kernel and its
 * decomposition cannot cancel out.
 *
 * Error budgets are expressed in float ULPs at the magnitude of the
 * reference value (floored at 1.0 to keep near-zero outputs from
 * demanding absolute precision floats cannot deliver). See
 * docs/TESTING.md for the budget rationale.
 */

#ifndef AIB_TESTS_TESTING_REFKERNELS_H
#define AIB_TESTS_TESTING_REFKERNELS_H

#include <cstdint>
#include <vector>

#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace aib::testing {

/** @name ULP comparison machinery
 * @{
 */

/**
 * Error of @p got against the double-precision reference @p want, in
 * units of float ULPs at max(|want|, 1): |got - want| / (2^-23 *
 * max(|want|, 1)). Returns +inf when either value is non-finite and
 * they are not identical.
 */
double errorInUlps(float got, double want);

/** Per-op error budget in ULPs (see errorInUlps for the scaling). */
struct UlpBudget {
    double ulps = 16.0;
};

/**
 * Budget for a length-@p k float accumulation (dot product, pooling
 * window, variance sum): random-sign rounding errors grow like
 * sqrt(k), so allow 4*sqrt(k) + 16 ULPs. A single wrong or dropped
 * term shows up as ~1e6 ULPs with unit-scale data, so the budget
 * stays discriminating at any k the suite uses.
 */
UlpBudget accumulationBudget(std::int64_t k);

/**
 * gtest-assert that every element of @p got is within @p budget of
 * the reference @p want; @p context labels failures.
 */
void expectUlpClose(const float *got, const std::vector<double> &want,
                    UlpBudget budget, const char *context);

/** @} */

/** @name Reference kernels (double precision, single thread)
 * @{
 */

/**
 * C (M,N) += op(A) * op(B); same semantics as ops::detail::gemm with
 * all four transpose variants, but accumulated in double.
 */
void refGemm(const float *a, const float *b, std::vector<double> &c,
             std::int64_t m, std::int64_t n, std::int64_t k,
             bool trans_a, bool trans_b);

/** Direct 2-D convolution, NCHW, square stride/padding. */
std::vector<double> refConv2d(const Tensor &input, const Tensor &weight,
                              const Tensor &bias, int stride,
                              int padding);

/** Gradients of a convolution with respect to its input and weight. */
struct RefConvGrads {
    std::vector<double> dx; ///< input-shaped (N,C,H,W)
    std::vector<double> dw; ///< weight-shaped (F,C,K,K)
};

/**
 * Backward of refConv2d for the upstream gradient @p grad
 * (N,F,Ho,Wo): every output pixel scatters grad * W into dx and
 * grad * x into dW over its in-bounds taps. The bias gradient is a
 * plain sum and is not modelled here.
 */
RefConvGrads refConv2dBackward(const Tensor &input, const Tensor &weight,
                               const Tensor &grad, int stride,
                               int padding);

/** Direct 2-D transposed convolution (weight layout (C,F,K,K)). */
std::vector<double> refConvTranspose2d(const Tensor &input,
                                       const Tensor &weight,
                                       const Tensor &bias, int stride,
                                       int padding);

/** Training-statistics batch norm over N,H,W per channel. */
std::vector<double> refBatchNorm2d(const Tensor &input,
                                   const Tensor &gamma,
                                   const Tensor &beta, float eps);

/** Softmax over the last dimension. */
std::vector<double> refSoftmax(const Tensor &a);

/** Log-softmax over the last dimension. */
std::vector<double> refLogSoftmax(const Tensor &a);

/** Sum of all elements. */
double refSum(const Tensor &a);

/** Sum along one dimension (non-negative @p dim, keepdim=false). */
std::vector<double> refSumDim(const Tensor &a, int dim);

/** Mean along one dimension (non-negative @p dim, keepdim=false). */
std::vector<double> refMeanDim(const Tensor &a, int dim);

/**
 * Single-head scaled dot-product attention:
 * softmax(Q K^T / sqrt(D)) V for Q (B,Tq,D), K,V (B,Tk,D).
 */
std::vector<double> refAttention(const Tensor &q, const Tensor &k,
                                 const Tensor &v);

/** One activation value (the epilogues the fused kernels apply). */
double refActivation(double x, ops::Act act, double slope);

/** Tanh-approximation GELU, elementwise (same form as ops::gelu). */
std::vector<double> refGelu(const Tensor &a);

/**
 * act(a + b) with right-aligned broadcasting — the reference for
 * ops::fused::addAct and for the addAct graph-rewrite kernel.
 */
std::vector<double> refAddAct(const Tensor &a, const Tensor &b,
                              ops::Act act, double slope);

/**
 * ((x - mean) * scale) * gamma + beta with the per-channel parameters
 * broadcast into @p x — the reference for ops::fused::normScale. All
 * four parameter tensors share one shape.
 */
std::vector<double> refNormScale(const Tensor &x, const Tensor &mean,
                                 const Tensor &scale,
                                 const Tensor &gamma,
                                 const Tensor &beta);

/** @} */

} // namespace aib::testing

#endif // AIB_TESTS_TESTING_REFKERNELS_H

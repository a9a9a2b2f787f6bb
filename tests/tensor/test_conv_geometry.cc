/**
 * @file
 * Geometry sweep of conv2d and convTranspose2d, forward and backward,
 * against the double-precision references in testing/refkernels.h.
 *
 * im2col/col2im copy and scatter each output row as a zero run, an
 * in-bounds segment and a zero run; these cases walk that segment
 * arithmetic through its edges: stride 1/2/3, padding from 0 up to
 * and past the kernel (rows and columns wholly in padding), widths
 * that are not a multiple of the stride, single-column inputs, a
 * kernel wider than the padded input row, and 1x1 kernels. Every
 * case runs under each compiled GEMM backend at 1, 2 and 7 threads.
 * The shapes are small so the sweep stays in the sanitizer tier.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "tensor/autograd.h"
#include "tensor/detail/gemm.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "tensor/tensor.h"
#include "testing/refkernels.h"

namespace {

using aib::Rng;
using aib::Tensor;
using aib::core::ThreadPool;
using aib::ops::detail::availableGemmBackends;
using aib::ops::detail::GemmBackend;
using aib::ops::detail::gemmBackendName;
using aib::ops::detail::setGemmBackend;
using namespace aib::testing;

struct Geometry {
    std::int64_t n, c, h, w, f;
    int kernel, stride, padding;
};

std::string
label(const char *op, const Geometry &g, GemmBackend backend,
      int threads, const char *what)
{
    return std::string(op) + " " + what + " n=" + std::to_string(g.n) +
           " c=" + std::to_string(g.c) + " h=" + std::to_string(g.h) +
           " w=" + std::to_string(g.w) + " f=" + std::to_string(g.f) +
           " k=" + std::to_string(g.kernel) +
           " s=" + std::to_string(g.stride) +
           " p=" + std::to_string(g.padding) + " " +
           std::string(gemmBackendName(backend)) +
           " threads=" + std::to_string(threads);
}

/** RAII restore of the forced backend and global pool size. */
struct DispatchGuard {
    ~DispatchGuard()
    {
        setGemmBackend(GemmBackend::Auto);
        ThreadPool::setGlobalThreads(0);
    }
};

/** Forward output, upstream gradient, dx and dW of one run. */
struct ConvRun {
    Tensor y, g, dx, dw;
};

/**
 * Run @p op on fresh leaves cloned from @p x and @p w and backprop an
 * upstream gradient drawn from @p rng in the output's shape.
 */
template <typename Op>
ConvRun
runWithGrad(Op op, const Tensor &x, const Tensor &w, const Tensor &bias,
            Rng &rng)
{
    Tensor xl = x.clone();
    xl.setRequiresGrad(true);
    Tensor wl = w.clone();
    wl.setRequiresGrad(true);
    ConvRun r;
    r.y = op(xl, wl, bias);
    r.g = Tensor::rand(r.y.shape(), rng, -1.0f, 1.0f);
    aib::autograd::backward(r.y, r.g);
    r.dx = xl.grad();
    r.dw = wl.grad();
    r.y = r.y.detach();
    return r;
}

TEST(ConvGeometry, Conv2dForwardBackwardMatchReference)
{
    DispatchGuard restore;
    const std::vector<Geometry> cases = {
        {1, 1, 1, 1, 1, 1, 1, 0}, // 1x1 image, 1x1 kernel
        {2, 2, 5, 1, 3, 3, 1, 1}, // w = 1
        {1, 2, 7, 7, 3, 3, 2, 0}, // w not a multiple of the stride
        {2, 3, 8, 8, 2, 3, 3, 1}, // stride 3
        {1, 2, 5, 6, 2, 3, 1, 3}, // padding == kernel
        {1, 2, 4, 5, 2, 2, 2, 4}, // padding > kernel, stride 2
        {1, 1, 1, 1, 2, 2, 2, 0}, // kernel wider than the row
        {1, 2, 2, 3, 2, 6, 3, 1}, // kernel wider than the padded row
        {2, 3, 5, 5, 4, 1, 1, 0}, // 1x1 kernel
        {1, 2, 6, 7, 3, 1, 2, 0}, // 1x1 kernel, stride 2
        {1, 2, 4, 4, 2, 1, 3, 1}, // 1x1 kernel, padded border
    };
    for (const Geometry &g : cases) {
        Rng rng(static_cast<std::uint64_t>(
            g.c * 131 + g.w * 17 + g.kernel * 5 + g.stride +
            g.padding * 7));
        const Tensor x =
            Tensor::rand({g.n, g.c, g.h, g.w}, rng, -1.0f, 1.0f);
        const Tensor w = Tensor::rand({g.f, g.c, g.kernel, g.kernel},
                                      rng, -1.0f, 1.0f);
        const Tensor bias = Tensor::rand({g.f}, rng, -1.0f, 1.0f);
        const std::vector<double> want_y =
            refConv2d(x, w, bias, g.stride, g.padding);
        const auto op = [&](const Tensor &xl, const Tensor &wl,
                            const Tensor &b) {
            return aib::ops::conv2d(xl, wl, b, g.stride, g.padding);
        };
        for (const GemmBackend backend : availableGemmBackends()) {
            ASSERT_TRUE(setGemmBackend(backend));
            for (const int threads : {1, 2, 7}) {
                ThreadPool::setGlobalThreads(threads);
                Rng grng(7);
                const ConvRun r = runWithGrad(op, x, w, bias, grng);
                ASSERT_EQ(r.y.numel(),
                          static_cast<std::int64_t>(want_y.size()));
                expectUlpClose(
                    r.y.data(), want_y,
                    accumulationBudget(g.c * g.kernel * g.kernel),
                    label("conv2d", g, backend, threads, "y").c_str());

                const RefConvGrads want =
                    refConv2dBackward(x, w, r.g, g.stride, g.padding);
                expectUlpClose(
                    r.dx.data(), want.dx,
                    accumulationBudget(g.f * g.kernel * g.kernel),
                    label("conv2d", g, backend, threads, "dx").c_str());
                expectUlpClose(
                    r.dw.data(), want.dw,
                    accumulationBudget(g.n * r.y.dim(2) * r.y.dim(3)),
                    label("conv2d", g, backend, threads, "dW").c_str());
            }
        }
    }
}

TEST(ConvGeometry, ConvTranspose2dForwardBackwardMatchReference)
{
    DispatchGuard restore;
    const std::vector<Geometry> cases = {
        {1, 1, 1, 1, 1, 1, 1, 0}, // 1x1 image, 1x1 kernel
        {2, 3, 4, 4, 2, 3, 2, 1},
        {1, 2, 5, 1, 2, 3, 1, 1}, // w = 1 (and output width 1)
        {1, 2, 3, 4, 2, 2, 3, 0}, // stride 3 leaves gaps
        {1, 2, 5, 5, 2, 2, 2, 2}, // padding == kernel
        {1, 2, 4, 3, 2, 3, 3, 3}, // padding == kernel, stride 3
        {1, 2, 3, 2, 2, 5, 2, 1}, // kernel wider than the input row
        {2, 3, 4, 5, 2, 1, 1, 0}, // 1x1 kernel
        {1, 2, 3, 3, 2, 1, 2, 0}, // 1x1 kernel, stride 2
    };
    for (const Geometry &g : cases) {
        Rng rng(static_cast<std::uint64_t>(
            g.c * 137 + g.w * 19 + g.kernel * 3 + g.stride +
            g.padding * 11));
        const Tensor x =
            Tensor::rand({g.n, g.c, g.h, g.w}, rng, -1.0f, 1.0f);
        const Tensor w = Tensor::rand({g.c, g.f, g.kernel, g.kernel},
                                      rng, -1.0f, 1.0f);
        const Tensor bias = Tensor::rand({g.f}, rng, -1.0f, 1.0f);
        const std::vector<double> want_y =
            refConvTranspose2d(x, w, bias, g.stride, g.padding);
        const auto op = [&](const Tensor &xl, const Tensor &wl,
                            const Tensor &b) {
            return aib::ops::convTranspose2d(xl, wl, b, g.stride,
                                             g.padding);
        };
        for (const GemmBackend backend : availableGemmBackends()) {
            ASSERT_TRUE(setGemmBackend(backend));
            for (const int threads : {1, 2, 7}) {
                ThreadPool::setGlobalThreads(threads);
                Rng grng(9);
                const ConvRun r = runWithGrad(op, x, w, bias, grng);
                ASSERT_EQ(r.y.numel(),
                          static_cast<std::int64_t>(want_y.size()));
                expectUlpClose(
                    r.y.data(), want_y,
                    accumulationBudget(g.c * g.kernel * g.kernel),
                    label("convT", g, backend, threads, "y").c_str());

                // convTranspose2d is the adjoint of conv2d with the
                // same (C,F,K,K) weight read as (out=C, in=F): its dx
                // is that convolution of the upstream gradient, and
                // its dW is that convolution's dW with x upstream.
                const std::vector<double> want_dx = refConv2d(
                    r.g, w, Tensor::zeros({g.c}), g.stride, g.padding);
                const RefConvGrads want =
                    refConv2dBackward(r.g, w, x, g.stride, g.padding);
                expectUlpClose(
                    r.dx.data(), want_dx,
                    accumulationBudget(g.f * g.kernel * g.kernel),
                    label("convT", g, backend, threads, "dx").c_str());
                expectUlpClose(
                    r.dw.data(), want.dw,
                    accumulationBudget(g.n * g.h * g.w),
                    label("convT", g, backend, threads, "dW").c_str());
            }
        }
    }
}

} // namespace

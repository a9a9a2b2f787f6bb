#include "testing/refkernels.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace aib::testing {

namespace {

// One float ULP at magnitude 1 (2^-23).
constexpr double kEps = 1.1920928955078125e-07;

} // namespace

double
errorInUlps(float got, double want)
{
    if (!std::isfinite(static_cast<double>(got)) ||
        !std::isfinite(want)) {
        return static_cast<double>(got) == want
                   ? 0.0
                   : std::numeric_limits<double>::infinity();
    }
    const double scale = std::max(std::fabs(want), 1.0);
    return std::fabs(static_cast<double>(got) - want) / (kEps * scale);
}

UlpBudget
accumulationBudget(std::int64_t k)
{
    return UlpBudget{4.0 * std::sqrt(static_cast<double>(k < 1 ? 1 : k)) +
                     16.0};
}

void
expectUlpClose(const float *got, const std::vector<double> &want,
               UlpBudget budget, const char *context)
{
    double worst = 0.0;
    std::size_t worst_i = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
        const double err = errorInUlps(got[i], want[i]);
        if (err > worst) {
            worst = err;
            worst_i = i;
        }
    }
    EXPECT_LE(worst, budget.ulps)
        << context << ": element " << worst_i << " got "
        << got[worst_i] << " want " << want[worst_i] << " ("
        << worst << " ULPs, budget " << budget.ulps << ")";
}

void
refGemm(const float *a, const float *b, std::vector<double> &c,
        std::int64_t m, std::int64_t n, std::int64_t k, bool trans_a,
        bool trans_b)
{
    c.resize(static_cast<std::size_t>(m * n), 0.0);
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::int64_t p = 0; p < k; ++p) {
                const double av = trans_a ? a[p * m + i] : a[i * k + p];
                const double bv = trans_b ? b[j * k + p] : b[p * n + j];
                acc += av * bv;
            }
            c[static_cast<std::size_t>(i * n + j)] += acc;
        }
}

std::vector<double>
refConv2d(const Tensor &input, const Tensor &weight, const Tensor &bias,
          int stride, int padding)
{
    const std::int64_t n = input.dim(0), c = input.dim(1),
                       h = input.dim(2), w = input.dim(3);
    const std::int64_t f = weight.dim(0);
    const std::int64_t kk = weight.dim(2);
    const std::int64_t ho = (h + 2 * padding - kk) / stride + 1;
    const std::int64_t wo = (w + 2 * padding - kk) / stride + 1;
    const float *px = input.data();
    const float *pw = weight.data();
    const float *pb = bias.data();
    std::vector<double> out(static_cast<std::size_t>(n * f * ho * wo));
    for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t fo = 0; fo < f; ++fo)
            for (std::int64_t oi = 0; oi < ho; ++oi)
                for (std::int64_t oj = 0; oj < wo; ++oj) {
                    double acc = static_cast<double>(pb[fo]);
                    for (std::int64_t ch = 0; ch < c; ++ch)
                        for (std::int64_t ki = 0; ki < kk; ++ki) {
                            const std::int64_t ii =
                                oi * stride - padding + ki;
                            if (ii < 0 || ii >= h)
                                continue;
                            for (std::int64_t kj = 0; kj < kk; ++kj) {
                                const std::int64_t jj =
                                    oj * stride - padding + kj;
                                if (jj < 0 || jj >= w)
                                    continue;
                                acc += static_cast<double>(
                                           px[((i * c + ch) * h + ii) *
                                                  w +
                                              jj]) *
                                       static_cast<double>(
                                           pw[((fo * c + ch) * kk +
                                               ki) *
                                                  kk +
                                              kj]);
                            }
                        }
                    out[static_cast<std::size_t>(
                        ((i * f + fo) * ho + oi) * wo + oj)] = acc;
                }
    return out;
}

RefConvGrads
refConv2dBackward(const Tensor &input, const Tensor &weight,
                  const Tensor &grad, int stride, int padding)
{
    const std::int64_t n = input.dim(0), c = input.dim(1),
                       h = input.dim(2), w = input.dim(3);
    const std::int64_t f = weight.dim(0);
    const std::int64_t kk = weight.dim(2);
    const std::int64_t ho = grad.dim(2), wo = grad.dim(3);
    const float *px = input.data();
    const float *pw = weight.data();
    const float *pg = grad.data();
    RefConvGrads out;
    out.dx.assign(static_cast<std::size_t>(input.numel()), 0.0);
    out.dw.assign(static_cast<std::size_t>(weight.numel()), 0.0);
    for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t fo = 0; fo < f; ++fo)
            for (std::int64_t oi = 0; oi < ho; ++oi)
                for (std::int64_t oj = 0; oj < wo; ++oj) {
                    const double g = static_cast<double>(
                        pg[((i * f + fo) * ho + oi) * wo + oj]);
                    for (std::int64_t ch = 0; ch < c; ++ch)
                        for (std::int64_t ki = 0; ki < kk; ++ki) {
                            const std::int64_t ii =
                                oi * stride - padding + ki;
                            if (ii < 0 || ii >= h)
                                continue;
                            for (std::int64_t kj = 0; kj < kk; ++kj) {
                                const std::int64_t jj =
                                    oj * stride - padding + kj;
                                if (jj < 0 || jj >= w)
                                    continue;
                                const auto xi = static_cast<std::size_t>(
                                    ((i * c + ch) * h + ii) * w + jj);
                                const auto wi = static_cast<std::size_t>(
                                    ((fo * c + ch) * kk + ki) * kk + kj);
                                out.dx[xi] +=
                                    g * static_cast<double>(pw[wi]);
                                out.dw[wi] +=
                                    g * static_cast<double>(px[xi]);
                            }
                        }
                }
    return out;
}

std::vector<double>
refConvTranspose2d(const Tensor &input, const Tensor &weight,
                   const Tensor &bias, int stride, int padding)
{
    const std::int64_t n = input.dim(0), c = input.dim(1),
                       h = input.dim(2), w = input.dim(3);
    const std::int64_t f = weight.dim(1);
    const std::int64_t kk = weight.dim(2);
    const std::int64_t ho = (h - 1) * stride - 2 * padding + kk;
    const std::int64_t wo = (w - 1) * stride - 2 * padding + kk;
    const float *px = input.data();
    const float *pw = weight.data();
    const float *pb = bias.data();
    std::vector<double> out(static_cast<std::size_t>(n * f * ho * wo));
    for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t fo = 0; fo < f; ++fo)
            for (std::int64_t oi = 0; oi < ho; ++oi)
                for (std::int64_t oj = 0; oj < wo; ++oj)
                    out[static_cast<std::size_t>(
                        ((i * f + fo) * ho + oi) * wo + oj)] =
                        static_cast<double>(pb[fo]);
    // Scatter form of the definition: every input pixel deposits a
    // stride-spaced K*K patch of weighted contributions.
    for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t ch = 0; ch < c; ++ch)
            for (std::int64_t ii = 0; ii < h; ++ii)
                for (std::int64_t jj = 0; jj < w; ++jj) {
                    const double x = static_cast<double>(
                        px[((i * c + ch) * h + ii) * w + jj]);
                    for (std::int64_t fo = 0; fo < f; ++fo)
                        for (std::int64_t ki = 0; ki < kk; ++ki) {
                            const std::int64_t oi =
                                ii * stride - padding + ki;
                            if (oi < 0 || oi >= ho)
                                continue;
                            for (std::int64_t kj = 0; kj < kk; ++kj) {
                                const std::int64_t oj =
                                    jj * stride - padding + kj;
                                if (oj < 0 || oj >= wo)
                                    continue;
                                out[static_cast<std::size_t>(
                                    ((i * f + fo) * ho + oi) * wo +
                                    oj)] +=
                                    x *
                                    static_cast<double>(
                                        pw[((ch * f + fo) * kk + ki) *
                                               kk +
                                           kj]);
                            }
                        }
                }
    return out;
}

std::vector<double>
refBatchNorm2d(const Tensor &input, const Tensor &gamma,
               const Tensor &beta, float eps)
{
    const std::int64_t n = input.dim(0), c = input.dim(1),
                       hw = input.dim(2) * input.dim(3);
    const std::int64_t count = n * hw;
    const float *px = input.data();
    const float *pg = gamma.data();
    const float *pb = beta.data();
    std::vector<double> out(static_cast<std::size_t>(input.numel()));
    for (std::int64_t ch = 0; ch < c; ++ch) {
        double sum = 0.0;
        for (std::int64_t i = 0; i < n; ++i)
            for (std::int64_t j = 0; j < hw; ++j)
                sum += static_cast<double>(
                    px[(i * c + ch) * hw + j]);
        const double mean = sum / static_cast<double>(count);
        double ss = 0.0;
        for (std::int64_t i = 0; i < n; ++i)
            for (std::int64_t j = 0; j < hw; ++j) {
                const double d =
                    static_cast<double>(px[(i * c + ch) * hw + j]) -
                    mean;
                ss += d * d;
            }
        // Biased variance (divisor = count), matching the op.
        const double var = ss / static_cast<double>(count);
        const double inv_std =
            1.0 / std::sqrt(var + static_cast<double>(eps));
        const double g = static_cast<double>(pg[ch]);
        const double b = static_cast<double>(pb[ch]);
        for (std::int64_t i = 0; i < n; ++i)
            for (std::int64_t j = 0; j < hw; ++j) {
                const double x = static_cast<double>(
                    px[(i * c + ch) * hw + j]);
                out[static_cast<std::size_t>((i * c + ch) * hw + j)] =
                    g * (x - mean) * inv_std + b;
            }
    }
    return out;
}

namespace {

/** Softmax over the last dimension into @p out; rows x c layout. */
void
softmaxRows(const Tensor &a, std::vector<double> &out, bool log_form)
{
    const std::int64_t c = a.dim(a.ndim() - 1);
    const std::int64_t rows = a.numel() / c;
    const float *px = a.data();
    out.resize(static_cast<std::size_t>(a.numel()));
    for (std::int64_t r = 0; r < rows; ++r) {
        const float *row = px + r * c;
        double *orow = out.data() + r * c;
        double mx = -std::numeric_limits<double>::infinity();
        for (std::int64_t j = 0; j < c; ++j)
            mx = std::max(mx, static_cast<double>(row[j]));
        double denom = 0.0;
        for (std::int64_t j = 0; j < c; ++j) {
            orow[j] = std::exp(static_cast<double>(row[j]) - mx);
            denom += orow[j];
        }
        if (log_form) {
            const double log_denom = std::log(denom);
            for (std::int64_t j = 0; j < c; ++j)
                orow[j] = static_cast<double>(row[j]) - mx - log_denom;
        } else {
            for (std::int64_t j = 0; j < c; ++j)
                orow[j] /= denom;
        }
    }
}

} // namespace

std::vector<double>
refSoftmax(const Tensor &a)
{
    std::vector<double> out;
    softmaxRows(a, out, /*log_form=*/false);
    return out;
}

std::vector<double>
refLogSoftmax(const Tensor &a)
{
    std::vector<double> out;
    softmaxRows(a, out, /*log_form=*/true);
    return out;
}

double
refSum(const Tensor &a)
{
    const float *px = a.data();
    double acc = 0.0;
    for (std::int64_t i = 0; i < a.numel(); ++i)
        acc += static_cast<double>(px[i]);
    return acc;
}

std::vector<double>
refSumDim(const Tensor &a, int dim)
{
    std::int64_t outer = 1, inner = 1;
    for (int i = 0; i < dim; ++i)
        outer *= a.dim(i);
    for (int i = dim + 1; i < a.ndim(); ++i)
        inner *= a.dim(i);
    const std::int64_t d = a.dim(dim);
    const float *px = a.data();
    std::vector<double> out(static_cast<std::size_t>(outer * inner),
                            0.0);
    for (std::int64_t o = 0; o < outer; ++o)
        for (std::int64_t j = 0; j < d; ++j)
            for (std::int64_t i = 0; i < inner; ++i)
                out[static_cast<std::size_t>(o * inner + i)] +=
                    static_cast<double>(
                        px[(o * d + j) * inner + i]);
    return out;
}

std::vector<double>
refMeanDim(const Tensor &a, int dim)
{
    std::vector<double> out = refSumDim(a, dim);
    const double d = static_cast<double>(a.dim(dim));
    for (double &v : out)
        v /= d;
    return out;
}

namespace {

/**
 * Element index into @p shape for the right-aligned broadcast of
 * @p shape into @p out_shape at flat output index @p flat.
 */
std::size_t
broadcastSourceIndex(std::int64_t flat,
                     const std::vector<std::int64_t> &out_shape,
                     const std::vector<std::int64_t> &shape)
{
    const int nd = static_cast<int>(out_shape.size());
    const int offset = nd - static_cast<int>(shape.size());
    std::int64_t index = 0;
    std::int64_t stride = 1;
    std::int64_t rem = flat;
    // Walk dims last-to-first, accumulating the source stride.
    std::vector<std::int64_t> coords(static_cast<std::size_t>(nd));
    for (int d = nd - 1; d >= 0; --d) {
        coords[static_cast<std::size_t>(d)] = rem % out_shape[d];
        rem /= out_shape[d];
    }
    for (int d = nd - 1; d >= offset; --d) {
        const std::int64_t sd = shape[static_cast<std::size_t>(d - offset)];
        if (sd != 1)
            index += coords[static_cast<std::size_t>(d)] * stride;
        stride *= sd;
    }
    return static_cast<std::size_t>(index);
}

} // namespace

double
refActivation(double x, ops::Act act, double slope)
{
    switch (act) {
    case ops::Act::None:
        return x;
    case ops::Act::Relu:
        return x > 0.0 ? x : 0.0;
    case ops::Act::LeakyRelu:
        return x > 0.0 ? x : slope * x;
    case ops::Act::Sigmoid:
        return 1.0 / (1.0 + std::exp(-x));
    case ops::Act::Tanh:
        return std::tanh(x);
    case ops::Act::Gelu: {
        // Tanh approximation, same constants as the float kernel.
        const double alpha = 0.7978845608028654;
        const double beta = 0.044715;
        return 0.5 * x * (1.0 + std::tanh(alpha * (x + beta * x * x * x)));
    }
    }
    return x;
}

std::vector<double>
refGelu(const Tensor &a)
{
    const float *px = a.data();
    std::vector<double> out(static_cast<std::size_t>(a.numel()));
    for (std::int64_t i = 0; i < a.numel(); ++i)
        out[static_cast<std::size_t>(i)] = refActivation(
            static_cast<double>(px[i]), ops::Act::Gelu, 0.0);
    return out;
}

std::vector<double>
refAddAct(const Tensor &a, const Tensor &b, ops::Act act, double slope)
{
    // Right-aligned broadcast output shape.
    const auto &sa = a.shape();
    const auto &sb = b.shape();
    const std::size_t nd = std::max(sa.size(), sb.size());
    std::vector<std::int64_t> out_shape(nd, 1);
    for (std::size_t i = 0; i < nd; ++i) {
        const std::int64_t da =
            i < nd - sa.size() ? 1 : sa[i - (nd - sa.size())];
        const std::int64_t db =
            i < nd - sb.size() ? 1 : sb[i - (nd - sb.size())];
        out_shape[i] = std::max(da, db);
    }
    std::int64_t n = 1;
    for (const std::int64_t d : out_shape)
        n *= d;
    const float *pa = a.data();
    const float *pb = b.data();
    const std::vector<std::int64_t> va(sa.begin(), sa.end());
    const std::vector<std::int64_t> vb(sb.begin(), sb.end());
    std::vector<double> out(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
        const double sum =
            static_cast<double>(
                pa[broadcastSourceIndex(i, out_shape, va)]) +
            static_cast<double>(
                pb[broadcastSourceIndex(i, out_shape, vb)]);
        out[static_cast<std::size_t>(i)] =
            refActivation(sum, act, slope);
    }
    return out;
}

std::vector<double>
refNormScale(const Tensor &x, const Tensor &mean, const Tensor &scale,
             const Tensor &gamma, const Tensor &beta)
{
    const auto &xs = x.shape();
    const std::vector<std::int64_t> out_shape(xs.begin(), xs.end());
    const std::vector<std::int64_t> ps(mean.shape().begin(),
                                       mean.shape().end());
    const float *px = x.data();
    const float *pm = mean.data();
    const float *psc = scale.data();
    const float *pg = gamma.data();
    const float *pb = beta.data();
    std::vector<double> out(static_cast<std::size_t>(x.numel()));
    for (std::int64_t i = 0; i < x.numel(); ++i) {
        const std::size_t p = broadcastSourceIndex(i, out_shape, ps);
        out[static_cast<std::size_t>(i)] =
            ((static_cast<double>(px[i]) -
              static_cast<double>(pm[p])) *
             static_cast<double>(psc[p])) *
                static_cast<double>(pg[p]) +
            static_cast<double>(pb[p]);
    }
    return out;
}

std::vector<double>
refAttention(const Tensor &q, const Tensor &k, const Tensor &v)
{
    const std::int64_t b = q.dim(0), tq = q.dim(1), d = q.dim(2);
    const std::int64_t tk = k.dim(1);
    const double scale = 1.0 / std::sqrt(static_cast<double>(d));
    const float *pq = q.data();
    const float *pk = k.data();
    const float *pv = v.data();
    std::vector<double> out(static_cast<std::size_t>(b * tq * d), 0.0);
    std::vector<double> scores(static_cast<std::size_t>(tk));
    for (std::int64_t bi = 0; bi < b; ++bi)
        for (std::int64_t i = 0; i < tq; ++i) {
            double mx = -std::numeric_limits<double>::infinity();
            for (std::int64_t j = 0; j < tk; ++j) {
                double acc = 0.0;
                for (std::int64_t p = 0; p < d; ++p)
                    acc += static_cast<double>(
                               pq[(bi * tq + i) * d + p]) *
                           static_cast<double>(
                               pk[(bi * tk + j) * d + p]);
                scores[static_cast<std::size_t>(j)] = acc * scale;
                mx = std::max(mx, scores[static_cast<std::size_t>(j)]);
            }
            double denom = 0.0;
            for (std::int64_t j = 0; j < tk; ++j) {
                scores[static_cast<std::size_t>(j)] =
                    std::exp(scores[static_cast<std::size_t>(j)] - mx);
                denom += scores[static_cast<std::size_t>(j)];
            }
            for (std::int64_t j = 0; j < tk; ++j) {
                const double p =
                    scores[static_cast<std::size_t>(j)] / denom;
                for (std::int64_t pd = 0; pd < d; ++pd)
                    out[static_cast<std::size_t>((bi * tq + i) * d +
                                                 pd)] +=
                        p * static_cast<double>(
                                pv[(bi * tk + j) * d + pd]);
            }
        }
    return out;
}

} // namespace aib::testing

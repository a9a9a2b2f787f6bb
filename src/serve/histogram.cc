#include "serve/histogram.h"

#include <algorithm>
#include <cmath>

#include "core/bytes.h"

namespace aib::serve {

namespace {

/** "AIBH" + format version; bumping the version breaks decoding. */
constexpr std::uint32_t kHistMagic = 0x48424941u;
constexpr std::uint16_t kHistVersion = 1;

} // namespace

LatencyHistogram::LatencyHistogram()
    : counts_(static_cast<std::size_t>(numBuckets()), 0)
{}

int
LatencyHistogram::bucketOf(double us)
{
    if (!(us >= 1.0)) // <1us (and NaN) underflow into bucket 0
        return 0;
    const int b =
        1 + static_cast<int>(std::floor(std::log2(us) *
                                        static_cast<double>(kSubBuckets)));
    return std::min(b, numBuckets() - 1);
}

double
LatencyHistogram::bucketLowerUs(int bucket)
{
    if (bucket <= 0)
        return 0.0;
    return std::exp2(static_cast<double>(bucket - 1) /
                     static_cast<double>(kSubBuckets));
}

void
LatencyHistogram::record(double us)
{
    if (us < 0.0 || std::isnan(us))
        us = 0.0;
    counts_[static_cast<std::size_t>(bucketOf(us))] += 1;
    if (count_ == 0) {
        minUs_ = us;
        maxUs_ = us;
    } else {
        minUs_ = std::min(minUs_, us);
        maxUs_ = std::max(maxUs_, us);
    }
    count_ += 1;
    sumUs_ += us;
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    if (other.count_ == 0)
        return;
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    if (count_ == 0) {
        minUs_ = other.minUs_;
        maxUs_ = other.maxUs_;
    } else {
        minUs_ = std::min(minUs_, other.minUs_);
        maxUs_ = std::max(maxUs_, other.maxUs_);
    }
    count_ += other.count_;
    sumUs_ += other.sumUs_;
}

void
LatencyHistogram::clear()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    count_ = 0;
    sumUs_ = 0.0;
    minUs_ = 0.0;
    maxUs_ = 0.0;
}

std::string
LatencyHistogram::encode() const
{
    namespace by = core::bytes;
    std::string out;
    by::putU32(&out, kHistMagic);
    by::putU16(&out, kHistVersion);
    by::putU16(&out, static_cast<std::uint16_t>(kSubBuckets));
    by::putU16(&out, static_cast<std::uint16_t>(kOctaves));
    by::putU64(&out, count_);
    by::putF64(&out, sumUs_);
    by::putF64(&out, minUs_);
    by::putF64(&out, maxUs_);
    std::uint32_t nonZero = 0;
    for (const std::uint64_t c : counts_)
        nonZero += c != 0 ? 1 : 0;
    by::putU32(&out, nonZero);
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0)
            continue;
        by::putU16(&out, static_cast<std::uint16_t>(i));
        by::putU64(&out, counts_[i]);
    }
    return out;
}

bool
LatencyHistogram::decode(const std::string &bytes,
                         LatencyHistogram *out, std::string *error)
{
    const auto fail = [&](const char *why) {
        if (error)
            *error = why;
        return false;
    };
    core::bytes::Reader in(bytes);
    std::uint32_t magic = 0;
    std::uint16_t version = 0, sub = 0, oct = 0;
    if (!in.getU32(&magic) || !in.getU16(&version) ||
        !in.getU16(&sub) || !in.getU16(&oct))
        return fail("histogram: truncated header");
    if (magic != kHistMagic)
        return fail("histogram: bad magic");
    if (version != kHistVersion)
        return fail("histogram: unsupported version");
    if (sub != kSubBuckets || oct != kOctaves)
        return fail("histogram: bucket geometry mismatch");

    LatencyHistogram h;
    std::uint32_t nonZero = 0;
    if (!in.getU64(&h.count_) || !in.getF64(&h.sumUs_) ||
        !in.getF64(&h.minUs_) || !in.getF64(&h.maxUs_) ||
        !in.getU32(&nonZero))
        return fail("histogram: truncated totals");
    std::uint64_t total = 0;
    int prev = -1;
    for (std::uint32_t i = 0; i < nonZero; ++i) {
        std::uint16_t bucket = 0;
        std::uint64_t c = 0;
        if (!in.getU16(&bucket) || !in.getU64(&c))
            return fail("histogram: truncated bucket entry");
        if (bucket >= static_cast<std::uint16_t>(numBuckets()))
            return fail("histogram: bucket index out of range");
        if (static_cast<int>(bucket) <= prev)
            return fail("histogram: non-canonical bucket order");
        if (c == 0)
            return fail("histogram: zero-count bucket entry");
        prev = bucket;
        h.counts_[bucket] = c;
        total += c;
    }
    if (in.remaining() != 0)
        return fail("histogram: trailing bytes");
    if (total != h.count_)
        return fail("histogram: count disagrees with bucket totals");
    *out = std::move(h);
    return true;
}

double
LatencyHistogram::meanUs() const
{
    return count_ > 0 ? sumUs_ / static_cast<double>(count_) : 0.0;
}

double
LatencyHistogram::minUs() const
{
    return minUs_;
}

double
LatencyHistogram::maxUs() const
{
    return maxUs_;
}

double
LatencyHistogram::percentileUs(double pct) const
{
    if (count_ == 0)
        return 0.0;
    pct = std::clamp(pct, 0.0, 100.0);
    // Same nearest-rank-with-interpolation convention as the exact
    // reference in tests/testing/percentile.h, quantized to bucket
    // granularity: the sample at (fractional) rank
    // pct/100 * (count-1), counting from the smallest.
    const double rank =
        pct / 100.0 * static_cast<double>(count_ - 1);
    const auto target = static_cast<std::uint64_t>(rank);
    // The extreme ranks are tracked exactly on the side; everything
    // interior is quantized to its bucket.
    if (target == 0 && rank == 0.0)
        return minUs_;
    if (target >= count_ - 1)
        return maxUs_;
    std::uint64_t seen = 0;
    for (int b = 0; b < numBuckets(); ++b) {
        const std::uint64_t c = counts_[static_cast<std::size_t>(b)];
        if (c == 0)
            continue;
        seen += c;
        if (seen > target) {
            // Geometric midpoint of the bucket, clamped to the exact
            // observed extremes so p0/p100 are precise.
            const double lo = bucketLowerUs(b);
            const double hi = bucketLowerUs(b + 1);
            const double rep = b == 0 ? 0.5 * hi : std::sqrt(lo * hi);
            return std::clamp(rep, minUs_, maxUs_);
        }
    }
    return maxUs_;
}

} // namespace aib::serve

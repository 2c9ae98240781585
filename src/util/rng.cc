#include "util/rng.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace varsaw {

namespace {

/** splitmix64 step, used only for seeding. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** x^n by binary exponentiation: IEEE multiplies only, no libm. */
double
powInt(double x, std::uint64_t n)
{
    double result = 1.0;
    while (n > 0) {
        if (n & 1)
            result *= x;
        x *= x;
        n >>= 1;
    }
    return result;
}

/**
 * Stirling-series remainder fc(k) = log(k!) - (k + 1/2) log(k + 1)
 * + (k + 1) - log(sqrt(2 pi)) (Hörmann 1993, table for k < 10).
 */
double
stirlingTail(std::uint64_t k)
{
    static constexpr double kTable[10] = {
        0.08106146679532726, 0.04134069595540929,
        0.02767792568499834, 0.02079067210376509,
        0.01664469118982119, 0.01387612882307075,
        0.01189670994589177, 0.01041126526197209,
        0.009255462182712733, 0.008330563433362871};
    if (k < 10)
        return kTable[k];
    const double r = 1.0 / static_cast<double>(k + 1);
    const double rr = r * r;
    return (1.0 / 12 - (1.0 / 360 - (1.0 / 1260) * rr) * rr) * r;
}

/** B(n, p) for p <= 0.5 by sequential search of the cdf from 0. */
std::uint64_t
binomialInversion(Rng &rng, std::uint64_t n, double p)
{
    const double q = 1.0 - p;
    const double s = p / q;
    const double a = static_cast<double>(n + 1) * s;
    double r = powInt(q, n);
    double u = rng.uniform();
    std::uint64_t x = 0;
    while (u > r && x < n) {
        u -= r;
        ++x;
        const double next = (a / static_cast<double>(x) - s) * r;
        // Past the mode the terms only shrink; once they are below
        // rounding, the remaining tail is negligible.
        if (next < 0x1.0p-52 && next < r)
            break;
        r = next;
    }
    return x;
}

/**
 * B(n, p) for p <= 0.5 with mode above kBinomialInversionMaxMode:
 * Hörmann's BTRD, steps numbered as in the paper.
 */
std::uint64_t
binomialBtrd(Rng &rng, std::uint64_t n, double p)
{
    const double nd = static_cast<double>(n);
    const auto m = static_cast<std::uint64_t>((nd + 1.0) * p);
    const double md = static_cast<double>(m);
    const double r = p / (1.0 - p);
    const double npq = nd * p * (1.0 - p);
    const double sqrt_npq = std::sqrt(npq);
    const double b = 1.15 + 2.53 * sqrt_npq;
    const double a = -0.0873 + 0.0248 * b + 0.01 * p;
    const double c = nd * p + 0.5;
    const double alpha = (2.83 + 5.1 / b) * sqrt_npq;
    const double v_r = 0.92 - 4.2 / b;
    const double u_rv_r = 0.86 * v_r;

    for (;;) {
        // 1: the triangle at the centre accepts most draws at once.
        double v = rng.uniform();
        double u;
        if (v <= u_rv_r) {
            u = v / v_r - 0.43;
            return static_cast<std::uint64_t>(
                std::floor((2.0 * a / (0.5 - std::abs(u)) + b) * u + c));
        }
        // 2: otherwise a fresh point under the hat.
        if (v >= v_r) {
            u = rng.uniform() - 0.5;
        } else {
            u = v / v_r - 0.93;
            u = (u < 0.0 ? -0.5 : 0.5) - u;
            v = rng.uniform() * v_r;
        }
        // 3.0
        const double us = 0.5 - std::abs(u);
        const double kd = std::floor((2.0 * a / us + b) * u + c);
        if (kd < 0.0 || kd > nd)
            continue;
        const auto k = static_cast<std::uint64_t>(kd);
        v = v * alpha / (a / (us * us) + b);
        const std::uint64_t km = k > m ? k - m : m - k;
        if (km <= 15) {
            // 3.1: accept iff v <= f(k)/f(m). The pmf's recurrence
            // f(i)/f(i-1) = (n + 1 - i) r / i is kept as a numerator
            // and a denominator product, so the test needs no
            // division.
            double num = 1.0;
            double den = 1.0;
            for (std::uint64_t i = std::min(k, m) + 1;
                 i <= std::max(k, m); ++i) {
                num *= (nd + 1.0 - static_cast<double>(i)) * r;
                den *= static_cast<double>(i);
            }
            if (m < k ? v * den <= num : v * num <= den)
                return k;
            continue;
        }
        // 3.2: squeeze on log f(k)/f(m).
        const double kmd = static_cast<double>(km);
        v = std::log(v);
        const double rho =
            (kmd / npq) *
            (((kmd / 3.0 + 0.625) * kmd + 1.0 / 6.0) / npq + 0.5);
        const double t = -kmd * kmd / (2.0 * npq);
        if (v < t - rho)
            return k;
        if (v > t + rho)
            continue;
        // 3.3: exact test through Stirling's series.
        const double nm = nd - md + 1.0;
        const double h = (md + 0.5) * std::log((md + 1.0) / (r * nm)) +
                         stirlingTail(m) + stirlingTail(n - m);
        const double kdd = static_cast<double>(k);
        const double nk = nd - kdd + 1.0;
        if (v <= h + (nd + 1.0) * std::log(nm / nk) +
                     (kdd + 0.5) * std::log(nk * r / (kdd + 1.0)) -
                     stirlingTail(k) - stirlingTail(n - k))
            return k;
    }
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
    // All-zero state would be a fixed point; splitmix64 cannot emit
    // four zeros in a row, but guard anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    if (n == 0)
        panic("Rng::uniformInt called with n == 0");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (0 - n) % n;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % n;
    }
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

std::uint64_t
Rng::binomial(std::uint64_t n, double p)
{
    if (n == 0 || !(p > 0.0))
        return 0;
    if (p >= 1.0)
        return n;
    const bool mirror = p > 0.5;
    const double pp = mirror ? 1.0 - p : p;
    const auto mode = static_cast<std::uint64_t>(
        (static_cast<double>(n) + 1.0) * pp);
    const std::uint64_t k = mode <= kBinomialInversionMaxMode
                                ? binomialInversion(*this, n, pp)
                                : binomialBtrd(*this, n, pp);
    return mirror ? n - k : k;
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    double u1 = 0.0;
    while (u1 == 0.0)
        u1 = uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedNormal_ = r * std::sin(theta);
    hasCachedNormal_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

int
Rng::rademacher()
{
    return (next() & 1) ? 1 : -1;
}

std::size_t
Rng::discrete(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights)
        total += w;
    if (total <= 0.0)
        panic("Rng::discrete called with non-positive total weight");
    double target = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        target -= weights[i];
        if (target <= 0.0)
            return i;
    }
    return weights.size() - 1;
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xA5A5A5A55A5A5A5Aull);
}

Rng
Rng::forStream(std::uint64_t seed, std::uint64_t stream)
{
    return Rng(mix64(seed, stream));
}

std::uint64_t
mix64(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t x = a + 0x9E3779B97F4A7C15ull * (b + 1);
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

} // namespace varsaw

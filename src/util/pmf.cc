#include "util/pmf.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/bitops.hh"
#include "util/counts.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace varsaw {

namespace {

/**
 * Walk the union of two supports in outcome order, calling
 * @p f(pa, pb) once per outcome, with 0 for a side that lacks it.
 */
template <typename F>
void
forEachUnion(const Pmf::Entries &a, const Pmf::Entries &b, F f)
{
    auto ia = a.begin();
    auto ib = b.begin();
    while (ia != a.end() || ib != b.end()) {
        if (ib == b.end() || (ia != a.end() && ia->first < ib->first)) {
            f(ia->second, 0.0);
            ++ia;
        } else if (ia == a.end() || ib->first < ia->first) {
            f(0.0, ib->second);
            ++ib;
        } else {
            f(ia->second, ib->second);
            ++ia;
            ++ib;
        }
    }
}

} // namespace

Pmf
Pmf::fromDense(int num_bits, const std::vector<double> &dense,
               double prune)
{
    if (dense.size() != (1ull << num_bits))
        panic("Pmf::fromDense: vector length is not 2^num_bits");
    Pmf pmf(num_bits);
    for (std::uint64_t x = 0; x < dense.size(); ++x)
        if (dense[x] > prune)
            pmf.probs_.emplace_back(x, dense[x]);
    return pmf;
}

double
Pmf::prob(std::uint64_t outcome) const
{
    auto it = std::ranges::lower_bound(probs_, outcome, {},
                                       &Entries::value_type::first);
    return it != probs_.end() && it->first == outcome ? it->second
                                                      : 0.0;
}

void
Pmf::set(std::uint64_t outcome, double p)
{
    slot(outcome) = p;
}

void
Pmf::accumulate(std::uint64_t outcome, double p)
{
    slot(outcome) += p;
}

double &
Pmf::slot(std::uint64_t outcome)
{
    auto it = std::ranges::lower_bound(probs_, outcome, {},
                                       &Entries::value_type::first);
    if (it == probs_.end() || it->first != outcome)
        it = probs_.emplace(it, outcome, 0.0);
    return it->second;
}

double
Pmf::totalMass() const
{
    double total = 0.0;
    for (const auto &[outcome, p] : probs_)
        total += p;
    return total;
}

void
Pmf::normalize()
{
    const double total = totalMass();
    if (total <= 0.0)
        return;
    const double inv = 1.0 / total;
    for (auto &[outcome, p] : probs_)
        p *= inv;
}

std::vector<double>
Pmf::toDense() const
{
    if (numBits_ > 30)
        panic("Pmf::toDense: too many bits for dense expansion");
    std::vector<double> dense(1ull << numBits_, 0.0);
    for (const auto &[outcome, p] : probs_)
        dense[outcome] += p;
    return dense;
}

Pmf
Pmf::marginal(const std::vector<int> &positions) const
{
    const std::size_t k = positions.size();
    Pmf out(static_cast<int>(k));

    // Both paths add each marginal outcome's terms in this PMF's
    // outcome order, starting from the first term, so they agree bit
    // for bit. The 2^k scratch array is used when it is no larger
    // than the support that fills it (2^k <= supportSize()); the
    // stable sort covers wider marginals of sparse PMFs.
    if (k < static_cast<std::size_t>(std::bit_width(probs_.size()))) {
        std::vector<double> sum(std::size_t{1} << k, 0.0);
        std::vector<unsigned char> seen(sum.size(), 0);
        for (const auto &[outcome, p] : probs_) {
            const std::uint64_t s = gatherBits(outcome, positions);
            sum[s] = seen[s] ? sum[s] + p : p;
            seen[s] = 1;
        }
        for (std::uint64_t s = 0; s < sum.size(); ++s)
            if (seen[s])
                out.probs_.emplace_back(s, sum[s]);
        return out;
    }

    Entries gathered;
    gathered.reserve(probs_.size());
    for (const auto &[outcome, p] : probs_)
        gathered.emplace_back(gatherBits(outcome, positions), p);
    std::ranges::stable_sort(gathered, {}, &Entries::value_type::first);
    for (const auto &[s, p] : gathered) {
        if (!out.probs_.empty() && out.probs_.back().first == s)
            out.probs_.back().second += p;
        else
            out.probs_.emplace_back(s, p);
    }
    return out;
}

double
Pmf::expectationParity(std::uint64_t mask) const
{
    double e = 0.0;
    for (const auto &[outcome, p] : probs_)
        e += p * paritySign(outcome & mask);
    return e;
}

Counts
Pmf::sample(Rng &rng, std::uint64_t shots) const
{
    Counts counts(numBits_);

    // Drawable support: positions of the positive entries.
    std::vector<std::size_t> support;
    double total = 0.0;
    for (std::size_t i = 0; i < probs_.size(); ++i) {
        if (probs_[i].second > 0.0) {
            support.push_back(i);
            total += probs_[i].second;
        }
    }
    const std::size_t n = support.size();
    if (n == 0 || shots == 0)
        return counts;

    // Vose's alias table: column c keeps itself with probability
    // keep and yields alias otherwise. Worklists are filled and
    // drained in outcome order, so the table depends on content only.
    struct Column
    {
        double keep;
        std::size_t alias;
    };
    std::vector<Column> table(n);
    std::vector<std::size_t> small;
    std::vector<std::size_t> large;
    const double scale = static_cast<double>(n) / total;
    for (std::size_t c = 0; c < n; ++c) {
        table[c] = {probs_[support[c]].second * scale, c};
        (table[c].keep < 1.0 ? small : large).push_back(c);
    }
    while (!small.empty() && !large.empty()) {
        const std::size_t s = small.back();
        small.pop_back();
        const std::size_t l = large.back();
        table[s].alias = l;
        table[l].keep = (table[l].keep + table[s].keep) - 1.0;
        if (table[l].keep < 1.0) {
            large.pop_back();
            small.push_back(l);
        }
    }
    // What is left is 1 up to rounding.
    for (const std::size_t c : small)
        table[c].keep = 1.0;
    for (const std::size_t c : large)
        table[c].keep = 1.0;

    // One uniform per shot: its integer part picks the column, its
    // fraction decides keep vs alias. That decision is a coin flip no
    // branch predictor learns, so it is made with a mask instead.
    std::vector<std::uint64_t> hits(n, 0);
    const double columns = static_cast<double>(n);
    for (std::uint64_t s = 0; s < shots; ++s) {
        const double u = rng.uniform() * columns;
        const std::size_t c =
            std::min(static_cast<std::size_t>(u), n - 1);
        const Column col = table[c];
        const std::size_t keep_mask = -static_cast<std::size_t>(
            u - static_cast<double>(c) < col.keep);
        ++hits[col.alias ^ ((c ^ col.alias) & keep_mask)];
    }
    for (std::size_t c = 0; c < n; ++c)
        if (hits[c] > 0)
            counts.add(probs_[support[c]].first, hits[c]);
    return counts;
}

std::uint64_t
Pmf::argmax() const
{
    std::uint64_t best = 0;
    double best_p = -1.0;
    for (const auto &[outcome, p] : probs_) {
        if (p > best_p) {
            best_p = p;
            best = outcome;
        }
    }
    return best;
}

double
Pmf::tvDistance(const Pmf &a, const Pmf &b)
{
    double d = 0.0;
    forEachUnion(a.probs_, b.probs_,
                 [&](double p, double q) { d += std::abs(p - q); });
    return 0.5 * d;
}

double
Pmf::fidelity(const Pmf &a, const Pmf &b)
{
    double bc = 0.0;
    forEachUnion(a.probs_, b.probs_, [&](double p, double q) {
        if (p > 0.0 && q > 0.0)
            bc += std::sqrt(p * q);
    });
    return bc * bc;
}

double
Pmf::hellingerDistance(const Pmf &a, const Pmf &b)
{
    const double bc = std::sqrt(fidelity(a, b));
    return std::sqrt(std::max(0.0, 1.0 - bc));
}

} // namespace varsaw

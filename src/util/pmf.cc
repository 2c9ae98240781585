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

/**
 * Pmf::sample's branches over @p probs, whose @p drawable positive
 * entries carry mass @p total.
 */
void
sampleBinomial(const Pmf::Entries &probs, Rng &rng, std::uint64_t shots,
               std::size_t drawable, double total, Counts &counts)
{
    // Conditional binomials: each positive entry takes
    // B(shots left, p / mass left) of what the entries before it did
    // not; the last takes the rest.
    std::uint64_t left = shots;
    double mass_left = total;
    for (const auto &[outcome, p] : probs) {
        if (!(p > 0.0))
            continue;
        const std::uint64_t k =
            --drawable == 0 ? left : rng.binomial(left, p / mass_left);
        if (k > 0)
            counts.append(outcome, k);
        left -= k;
        if (left == 0)
            return;
        mass_left -= p;
    }
}

void
sampleAlias(const Pmf::Entries &probs, Rng &rng, std::uint64_t shots,
            std::size_t drawable, double total, Counts &counts)
{
    // Drawable support: positions of the positive entries, or the
    // identity when every entry is positive (a pruned fromDense).
    const std::size_t n = drawable;
    std::vector<std::size_t> support;
    if (n < probs.size()) {
        support.reserve(n);
        for (std::size_t i = 0; i < probs.size(); ++i)
            if (probs[i].second > 0.0)
                support.push_back(i);
    }
    const auto entry = [&](std::size_t c) -> const auto & {
        return probs[support.empty() ? c : support[c]];
    };

    // Vose's alias table: column c keeps itself with probability
    // keep and yields alias otherwise. The small and large worklists
    // are two stacks in one array, small growing up from the front
    // and large down from the back (together they never hold more
    // than n columns). They are filled and drained in outcome order,
    // so the table depends on content only.
    struct Column
    {
        double keep;
        std::size_t alias;
    };
    std::vector<Column> table(n);
    std::vector<std::uint64_t> work(n);
    std::size_t small_top = 0; // small = work[0, small_top)
    std::size_t large_top = n; // large = work[large_top, n), top first
    const double scale = static_cast<double>(n) / total;
    for (std::size_t c = 0; c < n; ++c) {
        table[c] = {entry(c).second * scale, c};
        if (table[c].keep < 1.0)
            work[small_top++] = c;
        else
            work[--large_top] = c;
    }
    while (small_top > 0 && large_top < n) {
        const std::size_t s = work[--small_top];
        const std::size_t l = work[large_top];
        table[s].alias = l;
        table[l].keep = (table[l].keep + table[s].keep) - 1.0;
        if (table[l].keep < 1.0) {
            ++large_top;
            work[small_top++] = l;
        }
    }
    // What is left is 1 up to rounding.
    for (std::size_t i = 0; i < small_top; ++i)
        table[work[i]].keep = 1.0;
    for (std::size_t i = large_top; i < n; ++i)
        table[work[i]].keep = 1.0;

    // One uniform per shot: its integer part picks the column, its
    // fraction decides keep vs alias. That decision is a coin flip no
    // branch predictor learns, so it is made with a mask instead.
    // The worklist array is dead now and counts the hits: on 2^16
    // columns a fresh 512 KB array cost more than the whole draw.
    std::vector<std::uint64_t> &hits = work;
    std::ranges::fill(hits, 0);
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
            counts.append(entry(c).first, hits[c]);
}

} // namespace

Pmf
Pmf::fromDense(int num_bits, const std::vector<double> &dense,
               double prune)
{
    if (dense.size() != (1ull << num_bits))
        panic("Pmf::fromDense: vector length is not 2^num_bits");
    // Counted first: growing a 2^16-entry support by doubling cost
    // four times the copy itself.
    Pmf pmf(num_bits);
    pmf.probs_.reserve(static_cast<std::size_t>(
        std::ranges::count_if(dense, [&](double p) { return p > prune; })));
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

void
Pmf::append(std::uint64_t outcome, double p)
{
    if (!probs_.empty() && probs_.back().first >= outcome)
        panic("Pmf::append: outcome out of order");
    probs_.emplace_back(outcome, p);
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
    std::size_t drawable = 0;
    double total = 0.0;
    for (const auto &[outcome, p] : probs_) {
        if (p > 0.0) {
            ++drawable;
            total += p;
        }
    }
    if (drawable == 0 || shots == 0)
        return counts;
    counts.reserve(std::min<std::uint64_t>(drawable, shots));
    if (shots >= kBinomialShotsPerEntry * drawable)
        sampleBinomial(probs_, rng, shots, drawable, total, counts);
    else
        sampleAlias(probs_, rng, shots, drawable, total, counts);
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

#include "util/counts.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/pmf.hh"

namespace varsaw {

void
Counts::add(std::uint64_t outcome, std::uint64_t n)
{
    auto it = std::ranges::lower_bound(histogram_, outcome, {},
                                       &Entries::value_type::first);
    if (it != histogram_.end() && it->first == outcome)
        it->second += n;
    else
        histogram_.emplace(it, outcome, n);
    totalShots_ += n;
}

void
Counts::append(std::uint64_t outcome, std::uint64_t n)
{
    if (!histogram_.empty() && histogram_.back().first >= outcome)
        panic("Counts::append: outcome out of order");
    histogram_.emplace_back(outcome, n);
    totalShots_ += n;
}

std::uint64_t
Counts::count(std::uint64_t outcome) const
{
    auto it = std::ranges::lower_bound(histogram_, outcome, {},
                                       &Entries::value_type::first);
    return it != histogram_.end() && it->first == outcome ? it->second
                                                          : 0;
}

void
Counts::merge(const Counts &other)
{
    if (other.numBits_ != numBits_)
        panic("Counts::merge: bit-width mismatch");
    for (const auto &[outcome, n] : other.histogram_)
        add(outcome, n);
}

Pmf
Counts::toPmf() const
{
    Pmf pmf(numBits_);
    if (totalShots_ == 0)
        return pmf;
    const double inv = 1.0 / static_cast<double>(totalShots_);
    for (const auto &[outcome, n] : histogram_)
        pmf.append(outcome, static_cast<double>(n) * inv);
    return pmf;
}

} // namespace varsaw

#include "mitigation/bayesian.hh"

#include <vector>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace varsaw {

Pmf
bayesianReconstruct(const Pmf &global,
                    const std::vector<LocalPmf> &locals, int passes)
{
    if (passes < 1)
        panic("bayesianReconstruct: passes must be >= 1");

    Pmf out = global;
    out.normalize();

    std::vector<double> factor;
    for (int pass = 0; pass < passes; ++pass) {
        for (const auto &local : locals) {
            if (local.pmf.supportSize() == 0)
                continue;

            // Current marginal M of the evolving joint on this
            // subset, summed in the joint's outcome order into a
            // dense 2^k table, then rewritten in place into the factor
            // L(s)/M(s). An outcome with no mass on this subset before
            // the update is left untouched (factor 1; its p is zero
            // anyway).
            factor.assign(std::size_t{1} << local.positions.size(), 0.0);
            for (const auto &[outcome, p] : out.raw())
                factor[gatherBits(outcome, local.positions)] += p;
            for (std::uint64_t s = 0; s < factor.size(); ++s)
                factor[s] = factor[s] <= 0.0
                                ? 1.0
                                : local.pmf.prob(s) / factor[s];

            // Scale each joint outcome by its subset outcome's factor
            // and renormalize: the same sum, in the same order, as
            // Pmf::normalize.
            double total = 0.0;
            for (auto &[outcome, p] : out.rawMutable()) {
                p *= factor[gatherBits(outcome, local.positions)];
                total += p;
            }
            if (total > 0.0) {
                const double inv = 1.0 / total;
                for (auto &[outcome, p] : out.rawMutable())
                    p *= inv;
            }
        }
    }
    return out;
}

} // namespace varsaw

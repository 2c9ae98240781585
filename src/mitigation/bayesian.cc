#include "mitigation/bayesian.hh"

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

    for (int pass = 0; pass < passes; ++pass) {
        for (const auto &local : locals) {
            if (local.pmf.supportSize() == 0)
                continue;

            // Current marginal M of the evolving joint on this
            // subset, rewritten in place into the factor L(s)/M(s).
            // An outcome with no mass on this subset before the update
            // is left untouched (factor 1; its p is zero anyway).
            Pmf factor = out.marginal(local.positions);
            for (auto &[s, m] : factor.rawMutable())
                m = m <= 0.0 ? 1.0 : local.pmf.prob(s) / m;

            // Scale each joint outcome by its subset outcome's factor.
            for (auto &[outcome, p] : out.rawMutable())
                p *= factor.prob(gatherBits(outcome, local.positions));
            out.normalize();
        }
    }
    return out;
}

} // namespace varsaw

/**
 * @file
 * Probability mass functions over measurement outcomes.
 *
 * Pmf is the central currency of the mitigation pipeline: circuit
 * execution produces a Pmf (via Counts), JigSaw subsets produce
 * marginal (local) Pmfs, and Bayesian reconstruction rewrites a
 * global Pmf to agree with the local ones.
 *
 * Outcomes are packed words: bit i corresponds to measured qubit
 * slot i. Storage is one flat vector of (outcome, probability)
 * pairs sorted by outcome, holding only the support; a full-support
 * distribution from exact simulation is the same vector with every
 * outcome present. Every fold and every sample walks that order, so
 * results are a pure function of content: two Pmfs with equal
 * entries give bit-identical sums and, under the same Rng seed,
 * identical samples, whatever order the entries were written in.
 */

#ifndef VARSAW_UTIL_PMF_HH
#define VARSAW_UTIL_PMF_HH

#include <cstdint>
#include <utility>
#include <vector>

namespace varsaw {

class Rng;
class Counts;

/** Probability mass function over packed bit-string outcomes. */
class Pmf
{
  public:
    /** Support entries, sorted by outcome, outcomes unique. */
    using Entries = std::vector<std::pair<std::uint64_t, double>>;

    Pmf() = default;

    /** Construct an all-zero PMF over @p num_bits measured bits. */
    explicit Pmf(int num_bits) : numBits_(num_bits) {}

    /**
     * Construct from a dense probability vector.
     *
     * @param num_bits Number of measured bits.
     * @param dense    Vector of length 2^num_bits; entries not above
     *                 @p prune are left out of the support.
     */
    static Pmf fromDense(int num_bits, const std::vector<double> &dense,
                         double prune = 0.0);

    /** Number of measured bits each outcome spans. */
    int numBits() const { return numBits_; }

    /** Probability of @p outcome (0 if outside the support). */
    double prob(std::uint64_t outcome) const;

    /** Set the probability of @p outcome (overwrites). */
    void set(std::uint64_t outcome, double p);

    /** Add @p p to the probability of @p outcome. */
    void accumulate(std::uint64_t outcome, double p);

    /**
     * Set the probability of an outcome above every stored one:
     * set() without the search, for writers that already walk
     * outcomes in order.
     */
    void append(std::uint64_t outcome, double p);

    /** Number of outcomes in the support. */
    std::size_t supportSize() const { return probs_.size(); }

    /** Sum of all stored probabilities, in outcome order. */
    double totalMass() const;

    /** Rescale so the total mass is 1 (no-op on an empty PMF). */
    void normalize();

    /** Expand into a dense vector of length 2^numBits. */
    std::vector<double> toDense() const;

    /**
     * Marginal distribution over a subset of this PMF's bits.
     *
     * Each marginal outcome's probability is summed in this PMF's
     * outcome order; its support is the image of this PMF's support.
     *
     * @param positions Bit positions within this PMF; position
     *                  positions[i] becomes bit i of the marginal.
     */
    Pmf marginal(const std::vector<int> &positions) const;

    /**
     * Expectation of a tensor product of Z operators.
     *
     * @param mask Bits where a Z factor acts.
     * @return Sum over outcomes of p(x) * (-1)^popcount(x & mask).
     */
    double expectationParity(std::uint64_t mask) const;

    /**
     * Sample @p shots outcomes into a Counts histogram.
     *
     * Only positive entries are drawable; outcomes with zero
     * probability are never drawn. The method depends only on
     * (shots, drawable support size d), so draws stay a function of
     * (Rng state, content):
     *
     * - shots >= kBinomialShotsPerEntry * d: conditional binomials
     *   in outcome order, O(d). Entry i takes
     *   Rng::binomial(shots left, p_i / mass left), the last
     *   positive entry takes the rest, and the walk stops once no
     *   shots are left.
     * - otherwise: a Walker/Vose alias table built over the support
     *   in outcome order, one Rng::uniform() per shot, O(d + shots).
     *
     * Both write the Counts in outcome order by appending.
     */
    Counts sample(Rng &rng, std::uint64_t shots) const;

    /**
     * Shots per drawable entry from which sample() switches from the
     * alias table to conditional binomials (bench_micro_mitigation's
     * sample_* cases measure the crossover).
     */
    static constexpr std::uint64_t kBinomialShotsPerEntry = 16;

    /** Most probable outcome; the smallest on a tie (0 if empty). */
    std::uint64_t argmax() const;

    /** Total variation distance to another PMF on the same bits. */
    static double tvDistance(const Pmf &a, const Pmf &b);

    /**
     * Classical (Bhattacharyya-squared) fidelity between PMFs:
     * (sum_x sqrt(a(x) b(x)))^2. 1 means identical distributions.
     */
    static double fidelity(const Pmf &a, const Pmf &b);

    /** Hellinger distance: sqrt(1 - sqrt(fidelity)). */
    static double hellingerDistance(const Pmf &a, const Pmf &b);

    /** Read-only access to the support, sorted by outcome. */
    const Entries &raw() const { return probs_; }

    /**
     * Mutable access for in-place reweighting (reconstruction).
     * Callers may rewrite probabilities but never outcomes.
     */
    Entries &rawMutable() { return probs_; }

  private:
    /** Probability of @p outcome, inserted as 0 if absent. */
    double &slot(std::uint64_t outcome);

    int numBits_ = 0;
    Entries probs_;
};

} // namespace varsaw

#endif // VARSAW_UTIL_PMF_HH

/**
 * @file
 * Measurement-count histograms.
 *
 * A Counts object is the raw result of executing a circuit for a
 * number of shots: packed measurement outcomes (qubit i of the
 * measured subset at bit i) with the number of times each was
 * observed. Storage is a flat vector of (outcome, count) pairs
 * sorted by outcome, so iteration order is a function of content.
 */

#ifndef VARSAW_UTIL_COUNTS_HH
#define VARSAW_UTIL_COUNTS_HH

#include <cstdint>
#include <utility>
#include <vector>

namespace varsaw {

class Pmf;

/** Histogram of measurement outcomes over a set of measured bits. */
class Counts
{
  public:
    /** Observed outcomes, sorted by outcome, outcomes unique. */
    using Entries = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

    Counts() = default;

    /** Construct an empty histogram over @p num_bits measured bits. */
    explicit Counts(int num_bits) : numBits_(num_bits) {}

    /** Number of measured bits each outcome spans. */
    int numBits() const { return numBits_; }

    /** Total number of recorded shots. */
    std::uint64_t totalShots() const { return totalShots_; }

    /** Record @p n observations of @p outcome. */
    void add(std::uint64_t outcome, std::uint64_t n = 1);

    /**
     * Record @p n observations of an outcome above every recorded
     * one: add() without the search, for writers that already walk
     * outcomes in order.
     */
    void append(std::uint64_t outcome, std::uint64_t n);

    /** Reserve room for @p outcomes distinct outcomes. */
    void reserve(std::size_t outcomes) { histogram_.reserve(outcomes); }

    /** Observed count for @p outcome (0 if never seen). */
    std::uint64_t count(std::uint64_t outcome) const;

    /** Number of distinct outcomes observed. */
    std::size_t numOutcomes() const { return histogram_.size(); }

    /** Merge another histogram over the same bits into this one. */
    void merge(const Counts &other);

    /** Convert to a normalized probability mass function. */
    Pmf toPmf() const;

    /** Read-only access to the histogram, sorted by outcome. */
    const Entries &raw() const { return histogram_; }

  private:
    int numBits_ = 0;
    std::uint64_t totalShots_ = 0;
    Entries histogram_;
};

} // namespace varsaw

#endif // VARSAW_UTIL_COUNTS_HH

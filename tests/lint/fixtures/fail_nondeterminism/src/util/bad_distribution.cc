// FAIL fixture [nondeterminism]: a <random> distribution in the
// outcome layer. Its algorithm is library-defined, so the same seed
// draws differently under another standard library.
#include <cstdint>
#include <random>

namespace fixture {

std::uint64_t
shotsOnOutcome(std::mt19937_64 &engine, std::uint64_t shots, double p)
{
    std::binomial_distribution<std::uint64_t> draw(shots, p);
    return draw(engine);
}

} // namespace fixture

/**
 * @file
 * Structural hashing of circuit jobs.
 *
 * A JobKey identifies a submission by what it computes — the
 * circuit's structure (gates, qubits, measurement spec), the bound
 * parameter values (quantized to a ~2.3e-10 rad grid, far below
 * shot noise or any optimizer step this stack takes, so only
 * physically indistinguishable angles collide), and the shot
 * count. Two submissions
 * with equal keys are redundant work: the service's JobLedger
 * answers the later one with the earlier one's sampled result
 * instead of re-executing.
 *
 * Keys are compared by (circuitHash, paramsHash, shots) without
 * re-checking the underlying job, so an accidental collision would
 * silently alias two jobs. Distinct jobs differing in params or
 * shots need a joint 128-bit collision; the worst case — distinct
 * circuits at identical params — needs a single 64-bit circuit-hash
 * collision, i.e. ~2^32 distinct circuit structures in one cache
 * epoch before the birthday bound bites. Workloads here submit a
 * few thousand structures per run, so this is accepted rather than
 * paid for with per-entry job storage.
 */

#ifndef VARSAW_SIM_CIRCUIT_HASH_HH
#define VARSAW_SIM_CIRCUIT_HASH_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/circuit.hh"

namespace varsaw {

struct CircuitJob;

/**
 * Structural hash of a circuit: qubit count, gate sequence (kind,
 * operands, bound angles, parameter slots) and measurement spec.
 * Labels are ignored — they are diagnostics, not semantics.
 */
std::uint64_t circuitStructuralHash(const Circuit &circuit);

/**
 * Structural hash of a circuit's leading @p count ops (qubit count
 * included, measurement spec and parameter count excluded). This is
 * the prep-state identity of the prefix-sharing engine: a state-prep
 * prefix hashes the same whether it is the leading slice of a full
 * measurement circuit or a standalone shared prep circuit.
 */
std::uint64_t circuitPrefixHash(const Circuit &circuit,
                                std::size_t count);

/**
 * Hash of a parameter vector, quantized to ~2^-32 radians per slot
 * so that values closer than floating-point noise map to the same
 * key while any physically distinct angles stay apart.
 */
std::uint64_t parameterHash(const std::vector<double> &params);

/** Content identity of one job: structure + params + shots. */
struct JobKey
{
    std::uint64_t circuitHash = 0;
    std::uint64_t paramsHash = 0;
    std::uint64_t shots = 0;

    bool operator==(const JobKey &other) const
    {
        return circuitHash == other.circuitHash &&
            paramsHash == other.paramsHash && shots == other.shots;
    }
};

/** Hash functor so JobKey can key an unordered_map. */
struct JobKeyHasher
{
    std::size_t operator()(const JobKey &key) const;
};

/**
 * Structural hash of the circuit a job denotes. For a plain job
 * this is circuitStructuralHash(job.circuit); for a prefix-sharing
 * job it hashes prep ops followed by suffix ops and the suffix's
 * measurement spec, producing the SAME value as hashing the
 * flattened (prep + suffix) circuit — so prefixed and cloned
 * submissions of identical work dedupe against each other.
 */
std::uint64_t jobCircuitHash(const CircuitJob &job);

/** Compute the content key of a job. */
JobKey makeJobKey(const CircuitJob &job);

/**
 * Sampling-stream id of a job: a pure function of its content key.
 * Every execution path that samples a job — an inline session, a
 * shared ExecutionService session, a cache-off re-execution —
 * derives the job's RNG stream from this value, so a given
 * (backend seed, circuit, params, shots) submission draws the SAME
 * shots no matter when, where, or how often it runs. This is what
 * makes result caching a pure memoization (hit or recompute,
 * identical bits) and lets independent runtimes/sessions dedupe
 * against each other without their interleaving ever being able to
 * change a result.
 */
std::uint64_t jobStream(const JobKey &key);

} // namespace varsaw

#endif // VARSAW_SIM_CIRCUIT_HASH_HH

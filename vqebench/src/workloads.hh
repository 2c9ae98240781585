/**
 * @file
 * The benchmark's workloads and the pass that runs one of them.
 *
 * A pass is one complete, closed-loop VQE job: build the
 * Hamiltonian, ansatz, backend, (service,) and VarSaw estimators
 * from scratch, run one warm-up evaluation per client (all of that
 * is the pass's set-up), then run a fixed number of SPSA iterations
 * per client. Every pass of a run uses the same generated inputs,
 * so every pass must reproduce the first one's energies bit for bit
 * and do exactly the same counted work. Passes rebuild the backend,
 * so no pass inherits another's prepared-state cache.
 */

#ifndef VQEBENCH_WORKLOADS_HH
#define VQEBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probes.hh"

namespace vqebench {

/** Static description of a workload. */
struct WorkloadSpec
{
    std::string name;
    /** "TFIM-<n>" or a Table 2 molecule name (chem/molecules.hh). */
    std::string hamiltonian;
    int qubits = 0;
    int reps = 2;              //!< EfficientSU2 (full entanglement) blocks
    std::uint64_t shots = 0;   //!< subset and Global shots
    int iterationsPerPass = 0; //!< SPSA iterations per client
    /** Generated inputs (x0, SPSA and backend seeds) per cycle. */
    int inputsPerCycle = 1;
    int clients = 1;           //!< concurrent VQE restarts
    /** Shared ExecutionService workers; 0 runs inline on a private
     * single-threaded runtime. */
    int serviceWorkers = 0;
    /** Interval for the mean of (mitigated estimate - mitigation
     * target at the same parameters; see Reference). */
    double meanErrorLow = 0.0;
    double meanErrorHigh = 0.0;
};

/** The workload named @p name, or null. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Every workload, in BENCHMARK.json order. */
const std::vector<WorkloadSpec> &allWorkloads();

/** Inputs generated from the command-line seed. */
struct Seeds
{
    std::uint64_t x0 = 0;      //!< ansatz initial parameters
    std::uint64_t spsa = 0;    //!< client c uses spsa + c
    std::uint64_t backend = 0; //!< NoisyExecutor sampling streams
};

/** Input @p k of the cycle generated from the command-line seed. */
Seeds deriveSeeds(std::uint64_t seed, int k);

/** One client's VQE within a pass. */
struct ClientRun
{
    std::vector<double> energies;  //!< every estimate() value
    std::vector<std::vector<double>> points; //!< and its parameters
    std::vector<double> latencies; //!< seconds per estimate()
    double runWall = 0.0;          //!< VqeDriver::run wall, seconds
    double estimateWall = 0.0;
    double estimateCpu = 0.0;      //!< traced only
    double execOnThread = 0.0;     //!< traced only
    double bestEnergy = 0.0;
    std::uint64_t jobsSubmitted = 0;
    std::uint64_t globalsRun = 0;
    std::uint64_t ticks = 0;
    std::string error; //!< non-empty when the client threw
};

/** How to run a pass. */
struct PassMode
{
    bool traced = false;
    /** >= 0: run only this client, alone, on an inline private
     * runtime (the reference for shared-service runs). */
    int inlineClient = -1;
};

/** Everything measured over one pass (run phase only unless
 * noted). */
struct PassResult
{
    int input = 0;       //!< index of the generated input
    bool traced = false;
    double setup = 0.0;      //!< whole set-up, seconds
    double setupEstimator = 0.0;
    double setupFirstEval = 0.0;
    double wall = 0.0;       //!< run phase wall, all clients
    std::vector<ClientRun> clients;

    std::uint64_t circuits = 0;
    std::uint64_t shots = 0;
    std::uint64_t retries = 0;
    std::uint64_t preps = 0;
    std::uint64_t suffixes = 0;
    std::uint64_t prepCacheHits = 0;
    std::uint64_t prepCacheMisses = 0;
    std::uint64_t crossSessionHits = 0;
    std::uint64_t chunks = 0;
    int workers = 0;

    ExecTotals exec; //!< traced only
};

/** Run one pass of @p spec (see file comment). */
PassResult runPass(const WorkloadSpec &spec, const Seeds &seeds,
                   const PassMode &mode);

/**
 * Shot-free reference energies for the output checks. Built after
 * the timed window, so its memory (the ground-state solve) never
 * counts towards the run's peak resident set.
 */
class Reference
{
  public:
    explicit Reference(const WorkloadSpec &spec);
    ~Reference();

    /** Exact ground-state energy of the workload's Hamiltonian. */
    double groundEnergy() const { return ground_; }

    /**
     * Energy of the ansatz at @p params on the workload's device
     * with its gate noise but no readout error, without shots: what
     * a perfect measurement-error mitigation recovers.
     */
    double mitigationTarget(const std::vector<double> &params);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
    double ground_ = 0.0;
};

} // namespace vqebench

#endif // VQEBENCH_WORKLOADS_HH

/**
 * @file
 * vqebench: the repository benchmark runner.
 *
 *   vqebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--iterations <n>] [--inputs <n>]
 *
 * Runs cycles of whole VQE passes of one workload (see workloads.hh)
 * -- at least three, then while another fits in --seconds -- checks
 * the outputs, and prints one JSON object as the last line of
 * standard output: {"correct", "attempted", "failed", "metrics"}.
 * With --trace 0 the metrics are the end-to-end ones, measured on
 * plain library objects; with --trace 1 one cycle runs every input
 * plain and then traced (probes.hh), and the metrics are the
 * per-layer ones from the traced passes plus the tracing overhead.
 * --iterations and --inputs shrink the passes and the cycle (the
 * smoke test uses them).
 *
 * Output checks, each counted as one operation that can fail:
 *  - every evaluation returns a finite value and no client throws;
 *  - every repeat of an input reproduces its first pass's energies
 *    bit for bit (traced passes included, which shows the probes
 *    only observe) and the same circuit and shot counts;
 *  - each client's best mitigated energy lies within the workload's
 *    tolerance of the shot-free energy at the same parameters with
 *    gate noise and no readout error, and not below the exact
 *    ground-state energy by more than that tolerance;
 *  - shared-service workloads: each client's energies equal the
 *    same client run alone on an inline private runtime.
 * Exit status is 0 only when every check passed.
 */

#include <cpuid.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "sim/kernels/kernels.hh"
#include "util/parallel.hh"
#include "workloads.hh"

using namespace vqebench;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    int iterations = 0; //!< 0 = the workload's own pass length
    int inputs = 0;     //!< 0 = the workload's own inputs per cycle
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "vqebench: %s\nusage: vqebench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--iterations <n>] [--inputs <n>]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = value;
        } else if (key == "--seed") {
            a.seed = std::strtoull(value, &end, 10);
            have_seed = end && *end == '\0' && *value != '-';
            if (!have_seed)
                usage("--seed must be a non-negative integer");
        } else if (key == "--seconds") {
            a.seconds = std::strtod(value, &end);
            if (!end || *end != '\0' || !(a.seconds > 0.0) ||
                a.seconds > 3600.0)
                usage("--seconds must be in (0, 3600]");
        } else if (key == "--trace") {
            const std::string v = value;
            if (v != "0" && v != "1")
                usage("--trace must be 0 or 1");
            a.trace = v == "1";
        } else if (key == "--iterations" || key == "--inputs") {
            const long n = std::strtol(value, &end, 10);
            if (!end || *end != '\0' || n < 1 || n > 10000)
                usage((key + " must be in [1, 10000]").c_str());
            (key == "--iterations" ? a.iterations : a.inputs) =
                static_cast<int>(n);
        } else {
            usage(("unknown argument " + key).c_str());
        }
    }
    if (a.workload.empty() || !have_seed || a.seconds <= 0.0)
        usage("--workload, --seed and --seconds are required");
    return a;
}

std::string
cpuModel()
{
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i)
        if (!__get_cpuid(0x80000002u + i, &regs[4 * i],
                         &regs[4 * i + 1], &regs[4 * i + 2],
                         &regs[4 * i + 3]))
            return "unknown";
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s = brand;
    s.erase(0, s.find_first_not_of(' '));
    return s;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated quantile (q in [0, 1]) of @p sorted. */
double
quantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

bool
bitIdentical(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
        (a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) ==
             0);
}

/** Check bookkeeping: one attempted operation each. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "vqebench: CHECK FAILED: %s\n",
                         what.c_str());
        }
    }
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    const std::string build_type = VQEBENCH_BUILD_TYPE;
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    if (build_type != "Release" || !ndebug) {
        std::fprintf(stderr,
                     "vqebench: refusing a non-Release build (%s)\n",
                     build_type.c_str());
        return 2;
    }

    const WorkloadSpec *found = findWorkload(args.workload);
    if (!found)
        usage(("unknown workload " + args.workload).c_str());
    WorkloadSpec spec = *found;
    if (args.iterations > 0)
        spec.iterationsPerPass = args.iterations;
    if (args.inputs > 0)
        spec.inputsPerCycle = args.inputs;

    // run.py starts the runner without VARSAW_* variables, so the
    // library's knobs are at their defaults; kernel threads are
    // pinned so statevector kernels never compete with clients.
    varsaw::setKernelThreads(1);

    std::printf("# provenance {\"workload\": \"%s\", \"seed\": %llu, "
                "\"nproc\": %u, \"cpu\": \"%s\", \"simd_tier\": "
                "\"%s\", \"compiler\": \"%s\", \"build_type\": "
                "\"%s\"}\n",
                spec.name.c_str(),
                static_cast<unsigned long long>(args.seed),
                std::thread::hardware_concurrency(),
                jsonEscape(cpuModel()).c_str(),
                varsaw::kern::simdTierName(varsaw::kern::activeSimdTier()),
                jsonEscape(__VERSION__).c_str(), build_type.c_str());
    std::fflush(stdout);

    // ---- timed window --------------------------------------------------
    // A cycle runs every generated input once (--trace 0), or twice,
    // plain then traced (--trace 1). An untraced run repeats cycles:
    // at least kMinCycles, then while another one fits in the
    // window. evals_per_s and setup_s take, per input, the median
    // pass time over its repeats, which discards a repeat slowed by
    // other load on the machine; latency quantiles pool every
    // evaluation. Counted work comes from one cycle and is exact.
    constexpr int kMinCycles = 3;
    std::vector<PassResult> passes;
    const double start = wallNow();
    int cycles = 0;
    for (;;) {
        for (int k = 0; k < spec.inputsPerCycle; ++k) {
            for (int traced = 0; traced <= (args.trace ? 1 : 0);
                 ++traced) {
                PassMode mode;
                mode.traced = traced == 1;
                passes.push_back(runPass(
                    spec, deriveSeeds(args.seed, k), mode));
                passes.back().input = k;
                passes.back().traced = mode.traced;
            }
        }
        ++cycles;
        const double elapsed = wallNow() - start;
        if (args.trace ||
            (cycles >= kMinCycles &&
             elapsed + elapsed / cycles > args.seconds))
            break;
    }
    // Read before anything that is not the workload (the references
    // below) can raise the process's high-water mark.
    const double rss_mb = peakRssMb();

    // ---- output checks -------------------------------------------------
    Checks checks;
    // The first pass of each input is its reference.
    std::vector<const PassResult *> refs(spec.inputsPerCycle, nullptr);
    for (std::size_t p = 0; p < passes.size(); ++p) {
        const PassResult &pr = passes[p];
        const PassResult *&ref = refs[pr.input];
        const std::string tag = "pass " + std::to_string(p) +
            " (input " + std::to_string(pr.input) +
            (pr.traced ? ", traced)" : ")");
        for (std::size_t c = 0; c < pr.clients.size(); ++c) {
            const ClientRun &cr = pr.clients[c];
            const std::string who = tag + " client " + std::to_string(c);
            std::uint64_t bad = 0;
            for (double v : cr.energies)
                bad += std::isfinite(v) ? 0 : 1;
            checks.attempted += cr.energies.size();
            checks.failed += bad;
            checks.expect(cr.error.empty(), who + " threw: " + cr.error);
            if (ref)
                checks.expect(bitIdentical(cr.energies,
                                           ref->clients[c].energies),
                              who + " energies differ from the "
                                    "input's first pass");
        }
        if (ref)
            checks.expect(pr.circuits == ref->circuits &&
                              pr.shots == ref->shots,
                          tag + " circuit/shot counts differ from "
                                "the input's first pass");
        else
            ref = &pr;
    }
    // Mitigated energies against shot-free references at the same
    // parameters (Reference), over the first pass of every input.
    // One estimate carries shot noise; the mean error (estimate -
    // target) over all of them must lie in the workload's interval,
    // widened by four standard errors of that mean. Passes are far
    // too short to converge, so against the exact ground state E0
    // the check is one-sided: no client's best estimate may lie
    // below E0 by more than kGroundShare of |E0|.
    constexpr double kGroundShare = 0.1;
    Reference reference(spec);
    const double e0 = reference.groundEnergy();
    double sum = 0.0, sum_sq = 0.0;
    std::size_t scored = 0;
    for (int k = 0; k < spec.inputsPerCycle; ++k) {
        for (std::size_t c = 0; c < refs[k]->clients.size(); ++c) {
            const ClientRun &cr = refs[k]->clients[c];
            for (std::size_t i = 0; i < cr.points.size(); ++i) {
                const double d = cr.energies[i] -
                    reference.mitigationTarget(cr.points[i]);
                sum += d;
                sum_sq += d * d;
                ++scored;
            }
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "input %d client %zu: best estimate %.6f "
                          "below the ground state %.6f",
                          k, c, cr.bestEnergy, e0);
            checks.expect(
                cr.bestEnergy >= e0 - kGroundShare * std::abs(e0), buf);
        }
    }
    const double n = static_cast<double>(std::max<std::size_t>(scored, 1));
    const double mean_error = sum / n;
    const double variance =
        std::max(0.0, sum_sq / n - mean_error * mean_error);
    const double slack = 4.0 * std::sqrt(variance / n);
    char error_msg[200];
    std::snprintf(error_msg, sizeof error_msg,
                  "mean (estimate - target) %.5f over %zu evaluations, "
                  "allowed [%.3f, %.3f] +- %.5f; ground state %.6f",
                  mean_error, scored, spec.meanErrorLow,
                  spec.meanErrorHigh, slack, e0);
    checks.expect(scored > 0 &&
                      mean_error >= spec.meanErrorLow - slack &&
                      mean_error <= spec.meanErrorHigh + slack,
                  error_msg);
    std::printf("# energies: %s\n", error_msg);
    if (spec.serviceWorkers > 0) {
        // Input 0's clients, each alone on an inline private runtime.
        for (int c = 0; c < spec.clients; ++c) {
            PassMode mode;
            mode.inlineClient = c;
            const PassResult alone =
                runPass(spec, deriveSeeds(args.seed, 0), mode);
            checks.expect(
                alone.clients.size() == 1 &&
                    bitIdentical(alone.clients[0].energies,
                                 refs[0]->clients[c].energies),
                "client " + std::to_string(c) +
                    " differs from the same client alone inline");
        }
    }

    // ---- metrics -------------------------------------------------------
    // Per input k: the median plain pass wall time over its repeats,
    // and the latencies of every plain evaluation (pooled).
    double plain_wall = 0.0, traced_wall = 0.0;
    std::uint64_t cycle_evals = 0, cycle_circuits = 0;
    std::vector<double> latencies, setups, setup_est, setup_first;
    for (int k = 0; k < spec.inputsPerCycle; ++k) {
        std::vector<double> walls;
        for (const auto &pr : passes) {
            if (pr.input != k)
                continue;
            setups.push_back(pr.setup);
            setup_est.push_back(pr.setupEstimator);
            setup_first.push_back(pr.setupFirstEval);
            if (pr.traced) {
                traced_wall += pr.wall;
                continue;
            }
            walls.push_back(pr.wall);
            for (const auto &cr : pr.clients)
                latencies.insert(latencies.end(), cr.latencies.begin(),
                                 cr.latencies.end());
        }
        plain_wall += median(walls);
        cycle_circuits += refs[k]->circuits;
        for (const auto &cr : refs[k]->clients)
            cycle_evals += cr.latencies.size();
    }
    std::sort(latencies.begin(), latencies.end());
    const double plain_rate =
        ratio(static_cast<double>(cycle_evals), plain_wall);

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {
            {"evals_per_s", plain_rate, "1/s"},
            {"eval_p50_ms", 1e3 * quantile(latencies, 0.50), "ms"},
            {"eval_p95_ms", 1e3 * quantile(latencies, 0.95), "ms"},
            {"circuits_per_eval",
             ratio(static_cast<double>(cycle_circuits),
                   static_cast<double>(cycle_evals)),
             "count"},
            {"setup_s", median(setups), "s"},
            {"peak_rss_mb", rss_mb, "MB"},
        };
        std::uint64_t globals = 0, ticks = 0;
        for (int k = 0; k < spec.inputsPerCycle; ++k)
            for (const auto &cr : refs[k]->clients) {
                globals += cr.globalsRun;
                ticks += cr.ticks;
            }
        std::printf("# %d cycles, %zu passes, %zu latency samples "
                    "(%zu beyond p95), Globals on %llu of %llu "
                    "iterations\n",
                    cycles, passes.size(), latencies.size(),
                    latencies.size() / 20,
                    static_cast<unsigned long long>(globals),
                    static_cast<unsigned long long>(ticks));
    } else {
        double optimizer = 0, est_self = 0, est_wait = 0;
        double client_wall = 0, worker_capacity = 0;
        std::uint64_t globals = 0, ticks = 0, jobs = 0, circuits = 0;
        std::uint64_t retries = 0, preps = 0, suffixes = 0;
        std::uint64_t hits = 0, misses = 0, cross = 0, chunks = 0;
        ExecTotals ex;
        for (std::size_t p = 0; p < passes.size(); ++p) {
            if (!passes[p].traced)
                continue;
            const PassResult &pr = passes[p];
            for (const auto &cr : pr.clients) {
                optimizer += cr.runWall - cr.estimateWall;
                est_self += std::max(0.0, cr.estimateCpu -
                                              cr.execOnThread);
                est_wait += cr.estimateWall - cr.estimateCpu;
                client_wall += cr.runWall;
                globals += cr.globalsRun;
                ticks += cr.ticks;
                jobs += cr.jobsSubmitted;
            }
            worker_capacity += pr.wall * pr.workers;
            circuits += pr.circuits;
            retries += pr.retries;
            preps += pr.preps;
            suffixes += pr.suffixes;
            hits += pr.prepCacheHits;
            misses += pr.prepCacheMisses;
            cross += pr.crossSessionHits;
            chunks += pr.chunks;
            ex.execNs += pr.exec.execNs;
            ex.marginalNs += pr.exec.marginalNs;
            ex.shots += pr.exec.shots;
            ex.supportEntries += pr.exec.supportEntries;
            ex.suffixGateAmplitudes += pr.exec.suffixGateAmplitudes;
            ex.prepGateAmplitudes = pr.exec.prepGateAmplitudes;
        }
        const double busy = 1e-9 * static_cast<double>(ex.execNs);
        const double sim = 1e-9 * static_cast<double>(ex.marginalNs);
        const double outcome = busy - sim;
        const double bytes =
            16.0 * (static_cast<double>(ex.suffixGateAmplitudes) +
                    static_cast<double>(preps) *
                        static_cast<double>(ex.prepGateAmplitudes));
        const int workers = std::max(1, passes.back().workers);
        const double traced_rate =
            ratio(static_cast<double>(cycle_evals), traced_wall);
        metrics = {
            {"vqa.optimizer_self_s", optimizer, "s"},
            {"estimator.self_s", est_self, "s"},
            {"estimator.wait_s", est_wait, "s"},
            {"core.globals_fraction",
             ratio(static_cast<double>(globals),
                   static_cast<double>(ticks)),
             "ratio"},
            {"outcome.sample_s", outcome, "s"},
            {"outcome.shots", static_cast<double>(ex.shots), "count"},
            {"outcome.support_entries",
             static_cast<double>(ex.supportEntries), "count"},
            {"outcome.ns_per_shot",
             ratio(1e9 * outcome, static_cast<double>(ex.shots)), "ns"},
            {"outcome.ns_per_support_entry",
             ratio(1e9 * outcome,
                   static_cast<double>(ex.supportEntries)),
             "ns"},
            {"sim.marginal_s", sim, "s"},
            {"sim.preps", static_cast<double>(preps), "count"},
            {"sim.suffixes", static_cast<double>(suffixes), "count"},
            {"sim.prep_cache_hit_ratio",
             ratio(static_cast<double>(hits),
                   static_cast<double>(hits + misses)),
             "ratio"},
            {"sim.bytes_moved_computed", bytes, "B"},
            {"exec.circuits", static_cast<double>(circuits), "count"},
            {"exec.busy_s", busy, "s"},
            {"exec.retries", static_cast<double>(retries), "count"},
            {"exec.worker_utilization",
             ratio(busy, traced_wall * workers), "ratio"},
            {"runtime.jobs_submitted", static_cast<double>(jobs),
             "count"},
            {"runtime.dedupe_ratio",
             1.0 - ratio(static_cast<double>(circuits),
                         static_cast<double>(jobs)),
             "ratio"},
            {"service.cross_session_hits", static_cast<double>(cross),
             "count"},
            {"service.chunks", static_cast<double>(chunks), "count"},
            {"setup.estimator_s", median(setup_est), "s"},
            {"setup.first_eval_s", median(setup_first), "s"},
            {"trace.evals", static_cast<double>(cycle_evals), "count"},
            {"trace.wall_s", traced_wall, "s"},
            {"trace.overhead_fraction",
             plain_rate > 0.0 ? 1.0 - traced_rate / plain_rate : 0.0,
             "ratio"},
            {"trace.attributed_fraction",
             ratio(optimizer + est_self + busy,
                   client_wall + worker_capacity),
             "ratio"},
        };
    }

    for (const auto &m : metrics)
        checks.expect(std::isfinite(m.value),
                      "metric " + m.name + " is not finite");

    checks.expect(cycle_evals > 0, "no evaluation ran");

    std::string json = "{\"correct\": ";
    json += checks.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(checks.attempted);
    json += ", \"failed\": " + std::to_string(checks.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(metrics[i].value) ? metrics[i].value
                                                      : 0.0);
        json += (i ? ", " : "") + std::string("\"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return checks.failed == 0 ? 0 : 1;
}

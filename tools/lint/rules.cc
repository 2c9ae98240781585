/**
 * @file
 * The varsaw-lint rule implementations. Every rule is driven by its
 * `[rule.<id>]` manifest section; a disabled or absent section skips
 * the rule. Findings land in one flat list, sorted by location.
 *
 * Rule ids (see tools/lint/rules.toml for the authoritative config
 * and docs/architecture.md for the rationale):
 *   layering            one-way layer DAG over #include edges
 *   intrinsics          arch intrinsic headers confined to kernels/
 *   fp-contract         kernel TUs pinned to -ffp-contract=off
 *   nondeterminism      rand()/random_device/wall-clock now() bans
 *   parallel-accumulate reductions must use the fixed-fold helpers
 *   unordered-iter      no iteration over unordered containers
 *   status-taxonomy     service/ throws only StatusError
 *   atomics-order       no default-seq_cst atomic ops in hot paths
 *   metric-naming       registry names are dotted lowercase snake
 */

#include "lint.hh"

#include <algorithm>
#include <cctype>

namespace varsaw::lint {

namespace {

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Occurrences of identifier-like @p needle at word boundaries. */
std::vector<std::size_t>
findIdent(const std::string &text, const std::string &needle)
{
    std::vector<std::size_t> out;
    std::size_t pos = 0;
    while ((pos = text.find(needle, pos)) != std::string::npos) {
        const bool leftOk =
            pos == 0 || !identChar(text[pos - 1]);
        const std::size_t end = pos + needle.size();
        const bool rightOk =
            end >= text.size() || !identChar(text[end]);
        // "::now" style needles start with ':'; boundary on the
        // left is then the preceding identifier char, which is fine.
        if (leftOk && rightOk)
            out.push_back(pos);
        pos += needle.size();
    }
    return out;
}

/** Offset just past the ')' matching the '(' at @p open (npos when
 * unbalanced). */
std::size_t
matchParen(const std::string &text, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < text.size(); ++i) {
        if (text[i] == '(')
            ++depth;
        else if (text[i] == ')' && --depth == 0)
            return i + 1;
    }
    return std::string::npos;
}

/** Skip a balanced <...> starting at @p open (offset of '<'). */
std::size_t
matchAngle(const std::string &text, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < text.size(); ++i) {
        if (text[i] == '<')
            ++depth;
        else if (text[i] == '>' && --depth == 0)
            return i + 1;
        else if (text[i] == ';')
            break; // not a template argument list after all
    }
    return std::string::npos;
}

void
emit(std::vector<Finding> &findings, const SourceFile &f, int line,
     const std::string &rule, const std::string &message)
{
    if (!f.allowed(rule, line))
        findings.push_back({f.path, line, rule, message});
}

/** `#include "..."` paths of @p f with their 1-based lines. */
std::vector<std::pair<std::string, int>>
quotedIncludes(const SourceFile &f)
{
    std::vector<std::pair<std::string, int>> out;
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
        const std::string &line = f.lines[i];
        std::size_t h = line.find_first_not_of(" \t");
        if (h == std::string::npos || line[h] != '#')
            continue;
        const std::size_t inc = line.find("include", h);
        if (inc == std::string::npos)
            continue;
        const std::size_t q1 = line.find('"', inc);
        if (q1 == std::string::npos)
            continue;
        const std::size_t q2 = line.find('"', q1 + 1);
        if (q2 == std::string::npos)
            continue;
        out.emplace_back(line.substr(q1 + 1, q2 - q1 - 1),
                         static_cast<int>(i + 1));
    }
    return out;
}

// ---- layering --------------------------------------------------------------

void
ruleLayering(const Manifest &m, const Tree &tree,
             std::vector<Finding> &findings)
{
    const std::string id = "layering";
    if (!m.boolean("rule." + id, "enabled", true))
        return;
    const std::string srcRoot = m.str("rule." + id, "root", "src");

    // layer name -> allowed dependency layers (self always allowed).
    std::map<std::string, std::set<std::string>> allowed;
    for (const std::string &layer : m.subsections("layer")) {
        auto &deps = allowed[layer];
        for (const std::string &d :
             m.list("layer." + layer, "deps"))
            deps.insert(d);
    }

    for (const SourceFile &f : tree.files) {
        if (!pathUnder(f.path, srcRoot))
            continue;
        // src/<layer>/... ; files directly under src/ are umbrella
        // headers, above the layering.
        const std::string rest = f.path.substr(srcRoot.size() + 1);
        const std::size_t slash = rest.find('/');
        if (slash == std::string::npos)
            continue;
        const std::string layer = rest.substr(0, slash);
        auto it = allowed.find(layer);
        if (it == allowed.end()) {
            emit(findings, f, 0, id,
                 "directory src/" + layer +
                     " is not a declared layer; add [layer." +
                     layer + "] to rules.toml");
            continue;
        }
        for (const auto &[inc, line] : quotedIncludes(f)) {
            const std::size_t s = inc.find('/');
            if (s == std::string::npos)
                continue;
            const std::string target = inc.substr(0, s);
            if (allowed.find(target) == allowed.end())
                continue; // not a layer-qualified include
            if (target != layer && !it->second.count(target))
                emit(findings, f, line, id,
                     "layer '" + layer + "' must not include '" +
                         inc + "' (allowed deps: declared in "
                               "[layer." +
                         layer + "])");
        }
    }
}

// ---- intrinsics ------------------------------------------------------------

void
ruleIntrinsics(const Manifest &m, const Tree &tree,
               std::vector<Finding> &findings)
{
    const std::string id = "intrinsics";
    if (!m.boolean("rule." + id, "enabled", true))
        return;
    const auto headers = m.list("rule." + id, "headers");
    const auto allowedDirs = m.list("rule." + id, "allowed");
    const auto scanDirs = m.list("rule." + id, "scan");

    for (const SourceFile *f : tree.under(scanDirs)) {
        bool exempt = false;
        for (const std::string &d : allowedDirs)
            if (pathUnder(f->path, d))
                exempt = true;
        if (exempt)
            continue;
        for (std::size_t i = 0; i < f->lines.size(); ++i) {
            const std::string &line = f->lines[i];
            const std::size_t h = line.find_first_not_of(" \t");
            if (h == std::string::npos || line[h] != '#')
                continue;
            for (const std::string &hdr : headers)
                if (line.find(hdr) != std::string::npos)
                    emit(findings, *f, static_cast<int>(i + 1), id,
                         "arch intrinsic header <" + hdr +
                             "> outside the allowed kernel "
                             "directories (code above kernels/ "
                             "stays ISA-portable)");
        }
    }
}

// ---- fp-contract -----------------------------------------------------------

void
ruleFpContract(const Manifest &m, const Tree &tree,
               std::vector<Finding> &findings)
{
    const std::string id = "fp-contract";
    if (!m.boolean("rule." + id, "enabled", true))
        return;
    const std::string kernelDir =
        m.str("rule." + id, "kernel_dir", "src/sim/kernels");
    const std::string flag =
        m.str("rule." + id, "flag", "-ffp-contract=off");
    const std::string cmakeName =
        m.str("rule." + id, "cmake", "CMakeLists.txt");

    // Kernel translation units in the scanned tree.
    std::vector<const SourceFile *> kernels;
    for (const SourceFile &f : tree.files)
        if (pathUnder(f.path, kernelDir) &&
            f.path.size() > 3 &&
            f.path.compare(f.path.size() - 3, 3, ".cc") == 0)
            kernels.push_back(&f);
    if (kernels.empty())
        return; // tree has no kernel TUs (e.g. a lint fixture)

    const SourceFile *cmake = nullptr;
    for (const SourceFile &f : tree.files)
        if (f.path == cmakeName)
            cmake = &f;
    if (!cmake) {
        findings.push_back(
            {cmakeName, 0, id,
             "kernel TUs exist but no " + cmakeName +
                 " was scanned to verify their " + flag +
                 " pinning"});
        return;
    }
    const bool hasFlag =
        cmake->raw.find(flag) != std::string::npos;
    for (const SourceFile *k : kernels) {
        const std::string base =
            k->path.substr(k->path.rfind('/') + 1);
        if (!hasFlag ||
            cmake->raw.find(base) == std::string::npos)
            emit(findings, *cmake, 0, id,
                 "kernel TU " + k->path + " is not pinned with " +
                     flag + " in " + cmakeName +
                     " (fixed rounding DAGs are part of the "
                     "bit-identity contract)");
    }
}

// ---- nondeterminism --------------------------------------------------------

void
ruleNondeterminism(const Manifest &m, const Tree &tree,
                   std::vector<Finding> &findings)
{
    const std::string id = "nondeterminism";
    if (!m.boolean("rule." + id, "enabled", true))
        return;
    const auto dirs = m.list("rule." + id, "dirs");
    const auto exempt = m.list("rule." + id, "exempt");
    const auto idents = m.list("rule." + id, "identifiers");
    const auto calls = m.list("rule." + id, "calls");

    for (const SourceFile *f : tree.under(dirs)) {
        bool skip = false;
        for (const std::string &e : exempt)
            if (pathUnder(f->path, e))
                skip = true;
        if (skip)
            continue;
        for (const std::string &ident : idents)
            for (std::size_t pos :
                 findIdent(f->stripped, ident))
                emit(findings, *f, f->lineOf(pos), id,
                     "'" + ident +
                         "' in a deterministic path (results must "
                         "be pure functions of job content; use "
                         "util/rng.hh seeded streams)");
        for (const std::string &call : calls) {
            std::size_t pos = 0;
            while ((pos = f->stripped.find(call, pos)) !=
                   std::string::npos) {
                emit(findings, *f, f->lineOf(pos), id,
                     "wall-clock '" + call +
                         "' in a deterministic path (timestamps "
                         "must never feed results; telemetry is "
                         "the only clock consumer)");
                pos += call.size();
            }
        }
    }
}

// ---- parallel-accumulate ---------------------------------------------------

/**
 * Inside the argument region of a parallel elementwise construct,
 * a compound add/sub into a BARE captured scalar is a reduction in
 * disguise: its merge order would depend on thread interleaving.
 * Subscripted targets (per-chunk partials, disjoint slices) and
 * identifiers declared inside the region are fine.
 */
void
ruleParallelAccumulate(const Manifest &m, const Tree &tree,
                       std::vector<Finding> &findings)
{
    const std::string id = "parallel-accumulate";
    if (!m.boolean("rule." + id, "enabled", true))
        return;
    const auto dirs = m.list("rule." + id, "dirs");
    const auto exempt = m.list("rule." + id, "exempt");
    const auto constructs = m.list("rule." + id, "constructs");
    const auto banned = m.list("rule." + id, "banned");

    for (const SourceFile *f : tree.under(dirs)) {
        bool skip = false;
        for (const std::string &e : exempt)
            if (pathUnder(f->path, e))
                skip = true;
        if (skip)
            continue;

        // Unordered-merge library reductions are banned outright in
        // these directories: chunkedReduce/pairwiseReduce are the
        // only sanctioned folds.
        for (const std::string &b : banned)
            for (std::size_t pos : findIdent(f->stripped, b))
                emit(findings, *f, f->lineOf(pos), id,
                     "'" + b +
                         "' in a deterministic path; use the "
                         "fixed-fold helpers (chunkedReduce / "
                         "pairwiseReduce in util/parallel.hh)");

        for (const std::string &ctor : constructs) {
            for (std::size_t pos :
                 findIdent(f->stripped, ctor)) {
                const std::size_t open =
                    f->stripped.find('(', pos);
                if (open == std::string::npos)
                    continue;
                const std::size_t end =
                    matchParen(f->stripped, open);
                if (end == std::string::npos)
                    continue;
                const std::string region =
                    f->stripped.substr(open, end - open);
                for (const char *op : {"+=", "-="}) {
                    std::size_t p = 0;
                    while ((p = region.find(op, p)) !=
                           std::string::npos) {
                        // What precedes the operator?
                        std::size_t e = p;
                        while (e > 0 &&
                               std::isspace(
                                   static_cast<unsigned char>(
                                       region[e - 1])))
                            --e;
                        if (e == 0 || region[e - 1] == ']' ||
                            !identChar(region[e - 1])) {
                            p += 2; // subscripted or not a var
                            continue;
                        }
                        std::size_t b = e;
                        while (b > 0 && identChar(region[b - 1]))
                            --b;
                        const std::string name =
                            region.substr(b, e - b);
                        // Member/pointee accumulation still races.
                        // Declared inside the region? Then it is
                        // per-invocation state, which is safe.
                        bool declared = false;
                        for (std::size_t d :
                             findIdent(region, name)) {
                            if (d >= b)
                                break;
                            std::size_t t = d;
                            while (t > 0 &&
                                   std::isspace(
                                       static_cast<unsigned char>(
                                           region[t - 1])))
                                --t;
                            if (t > 0 &&
                                (identChar(region[t - 1]) ||
                                 region[t - 1] == '>' ||
                                 region[t - 1] == '*' ||
                                 region[t - 1] == '&')) {
                                declared = true;
                                break;
                            }
                        }
                        if (!declared)
                            emit(findings, *f,
                                 f->lineOf(open + p), id,
                                 "accumulation into captured '" +
                                     name + "' inside " + ctor +
                                     " (merge order would depend "
                                     "on thread interleaving; use "
                                     "chunkedReduce or per-chunk "
                                     "partials)");
                        p += 2;
                    }
                }
            }
        }
    }
}

// ---- unordered-iter --------------------------------------------------------

/** Identifiers declared with an unordered container type. */
std::vector<std::string>
unorderedNames(const std::string &text)
{
    std::vector<std::string> out;
    for (const char *type :
         {"unordered_map", "unordered_set", "unordered_multimap",
          "unordered_multiset"}) {
        for (std::size_t pos : findIdent(text, type)) {
            std::size_t p = pos + std::string(type).size();
            if (p < text.size() && text[p] == '<') {
                p = matchAngle(text, p);
                if (p == std::string::npos)
                    continue;
            }
            while (p < text.size() &&
                   (std::isspace(
                        static_cast<unsigned char>(text[p])) ||
                    text[p] == '&' || text[p] == '*'))
                ++p;
            std::size_t e = p;
            while (e < text.size() && identChar(text[e]))
                ++e;
            if (e > p) {
                const std::string name = text.substr(p, e - p);
                if (name != "const" && name != "return")
                    out.push_back(name);
            }
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

void
ruleUnorderedIter(const Manifest &m, const Tree &tree,
                  std::vector<Finding> &findings)
{
    const std::string id = "unordered-iter";
    if (!m.boolean("rule." + id, "enabled", true))
        return;
    const auto dirs = m.list("rule." + id, "dirs");

    for (const SourceFile *f : tree.under(dirs)) {
        for (const std::string &name :
             unorderedNames(f->stripped)) {
            for (std::size_t pos :
                 findIdent(f->stripped, name)) {
                // Range-for: `: name)` — walk left over spaces.
                std::size_t b = pos;
                while (b > 0 &&
                       std::isspace(static_cast<unsigned char>(
                           f->stripped[b - 1])))
                    --b;
                const bool rangeFor =
                    b > 0 && f->stripped[b - 1] == ':' &&
                    (b < 2 || f->stripped[b - 2] != ':');
                // Explicit iterator walk: name.begin() etc.
                std::size_t a = pos + name.size();
                bool iterCall = false;
                if (a < f->stripped.size() &&
                    (f->stripped[a] == '.' ||
                     f->stripped.compare(a, 2, "->") == 0)) {
                    const std::size_t ms =
                        f->stripped[a] == '.' ? a + 1 : a + 2;
                    for (const char *it :
                         {"begin", "cbegin", "rbegin"})
                        if (f->stripped.compare(
                                ms, std::string(it).size(), it) ==
                            0)
                            iterCall = true;
                }
                if (rangeFor || iterCall)
                    emit(findings, *f, f->lineOf(pos), id,
                         "iteration over unordered container '" +
                             name +
                             "' (bucket order is "
                             "implementation-defined and must "
                             "never feed results or hashes; use "
                             "an ordered container or sort "
                             "first)");
            }
        }
    }
}

// ---- status-taxonomy -------------------------------------------------------

/**
 * Execution layers fail through util/status.hh: the only exception
 * type thrown in the configured directories is StatusError, and
 * process-killing calls (abort/terminate/exit/fatal) are banned.
 * `throw;` (a bare rethrow) is allowed — it originates nothing, it
 * re-propagates an exception something else was allowed to create —
 * and panic() stays the sanctioned invariant-violation mechanism.
 */
void
ruleStatusTaxonomy(const Manifest &m, const Tree &tree,
                   std::vector<Finding> &findings)
{
    const std::string id = "status-taxonomy";
    if (!m.boolean("rule." + id, "enabled", true))
        return;
    const auto dirs = m.list("rule." + id, "dirs");
    const auto allowedThrow = m.list("rule." + id, "allowed_throw");
    const auto bannedCalls = m.list("rule." + id, "banned_calls");

    for (const SourceFile *f : tree.under(dirs)) {
        for (std::size_t pos : findIdent(f->stripped, "throw")) {
            std::size_t p = pos + 5;
            while (p < f->stripped.size() &&
                   std::isspace(static_cast<unsigned char>(
                       f->stripped[p])))
                ++p;
            if (p < f->stripped.size() && f->stripped[p] == ';')
                continue; // bare rethrow
            // The thrown expression's leading identifier, with any
            // namespace qualifiers peeled (std::runtime_error and
            // varsaw::StatusError both resolve to their last
            // component).
            std::string tok;
            for (;;) {
                std::size_t e = p;
                while (e < f->stripped.size() &&
                       identChar(f->stripped[e]))
                    ++e;
                tok = f->stripped.substr(p, e - p);
                if (e + 1 < f->stripped.size() &&
                    f->stripped[e] == ':' &&
                    f->stripped[e + 1] == ':') {
                    p = e + 2;
                    continue;
                }
                break;
            }
            bool ok = false;
            for (const std::string &a : allowedThrow)
                if (tok == a)
                    ok = true;
            if (!ok)
                emit(findings, *f, f->lineOf(pos), id,
                     "throw of '" + (tok.empty() ? "?" : tok) +
                         "' outside the Status taxonomy (execution "
                         "paths throw StatusError only — see "
                         "util/status.hh)");
        }
        for (const std::string &call : bannedCalls) {
            for (std::size_t pos :
                 findIdent(f->stripped, call)) {
                const std::size_t open = pos + call.size();
                if (open >= f->stripped.size() ||
                    f->stripped[open] != '(')
                    continue; // not a call
                emit(findings, *f, f->lineOf(pos), id,
                     "'" + call +
                         "' kills the process from an execution "
                         "path; fail the job with a Status "
                         "(panic() remains the sanctioned "
                         "invariant-violation escape)");
            }
        }
    }
}

// ---- atomics-order ---------------------------------------------------------

/** Identifiers declared std::atomic<...> / std::atomic_xxx. */
std::vector<std::string>
atomicNames(const std::string &text)
{
    std::vector<std::string> out;
    for (std::size_t pos : findIdent(text, "atomic")) {
        std::size_t p = pos + 6;
        if (p < text.size() && text[p] == '<') {
            p = matchAngle(text, p);
            if (p == std::string::npos)
                continue;
        } else if (p < text.size() && text[p] == '_') {
            // atomic_bool, atomic_flag, atomic_uint64_t, ...
            while (p < text.size() && identChar(text[p]))
                ++p;
        } else {
            continue;
        }
        while (p < text.size() &&
               (std::isspace(
                    static_cast<unsigned char>(text[p])) ||
                text[p] == '&' || text[p] == '*'))
            ++p;
        std::size_t e = p;
        while (e < text.size() && identChar(text[e]))
            ++e;
        if (e > p)
            out.push_back(text.substr(p, e - p));
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

void
ruleAtomicsOrder(const Manifest &m, const Tree &tree,
                 std::vector<Finding> &findings)
{
    const std::string id = "atomics-order";
    if (!m.boolean("rule." + id, "enabled", true))
        return;
    const auto paths = m.list("rule." + id, "paths");
    const auto methods = m.list("rule." + id, "methods");

    for (const SourceFile *f : tree.under(paths)) {
        // Method calls missing an explicit memory order.
        for (const std::string &method : methods) {
            for (std::size_t pos :
                 findIdent(f->stripped, method)) {
                if (pos == 0 || (f->stripped[pos - 1] != '.' &&
                                 !(pos >= 2 &&
                                   f->stripped[pos - 2] == '-' &&
                                   f->stripped[pos - 1] == '>')))
                    continue;
                const std::size_t open = pos + method.size();
                if (open >= f->stripped.size() ||
                    f->stripped[open] != '(')
                    continue;
                const std::size_t end =
                    matchParen(f->stripped, open);
                if (end == std::string::npos)
                    continue;
                const std::string args =
                    f->stripped.substr(open, end - open);
                if (args.find("memory_order") ==
                    std::string::npos)
                    emit(findings, *f, f->lineOf(pos), id,
                         "'" + method +
                             "' without an explicit memory order "
                             "in a documented-contract hot path "
                             "(default seq_cst hides the intended "
                             "ordering; state it)");
            }
        }
        // Operator forms on atomic-declared identifiers: ++x, x++,
        // x += 1, bare x = v assignments — all seq_cst in disguise.
        for (const std::string &name :
             atomicNames(f->stripped)) {
            for (std::size_t pos :
                 findIdent(f->stripped, name)) {
                const std::size_t e = pos + name.size();
                std::size_t b = pos;
                while (b > 0 &&
                       std::isspace(static_cast<unsigned char>(
                           f->stripped[b - 1])))
                    --b;
                const bool preIncDec =
                    b >= 2 &&
                    ((f->stripped[b - 1] == '+' &&
                      f->stripped[b - 2] == '+') ||
                     (f->stripped[b - 1] == '-' &&
                      f->stripped[b - 2] == '-'));
                std::size_t a = e;
                while (a < f->stripped.size() &&
                       std::isspace(static_cast<unsigned char>(
                           f->stripped[a])))
                    ++a;
                bool postOp = false;
                if (a + 1 < f->stripped.size()) {
                    const char c0 = f->stripped[a];
                    const char c1 = f->stripped[a + 1];
                    postOp = (c0 == '+' && c1 == '+') ||
                        (c0 == '-' && c1 == '-') ||
                        ((c0 == '+' || c0 == '-' || c0 == '|' ||
                          c0 == '&' || c0 == '^') &&
                         c1 == '=');
                }
                if (preIncDec || postOp)
                    emit(findings, *f, f->lineOf(pos), id,
                         "operator-form atomic update on '" +
                             name +
                             "' is seq_cst; use "
                             "fetch_add/fetch_sub with an "
                             "explicit memory order");
            }
        }
    }
}

// ---- metric naming ---------------------------------------------------------

/**
 * layer.component.metric form: two or more '.'-separated segments,
 * each lowercase snake_case starting with a letter.
 */
bool
wellFormedMetricName(const std::string &name)
{
    int segments = 0;
    std::size_t i = 0;
    for (;;) {
        if (i >= name.size() ||
            !(name[i] >= 'a' && name[i] <= 'z'))
            return false;
        std::size_t j = i + 1;
        while (j < name.size() &&
               ((name[j] >= 'a' && name[j] <= 'z') ||
                (name[j] >= '0' && name[j] <= '9') ||
                name[j] == '_'))
            ++j;
        ++segments;
        if (j == name.size())
            return segments >= 2;
        if (name[j] != '.')
            return false;
        i = j + 1;
    }
}

void
ruleMetricNaming(const Manifest &m, const Tree &tree,
                 std::vector<Finding> &findings)
{
    const std::string id = "metric-naming";
    if (!m.boolean("rule." + id, "enabled", true))
        return;
    const auto dirs = m.list("rule." + id, "dirs");
    const auto methods = m.list("rule." + id, "methods");

    for (const SourceFile *f : tree.under(dirs)) {
        for (const std::string &method : methods) {
            for (std::size_t pos :
                 findIdent(f->stripped, method)) {
                const std::size_t open = pos + method.size();
                if (open >= f->stripped.size() ||
                    f->stripped[open] != '(')
                    continue;
                // Only calls whose first argument is a string
                // LITERAL are checked; computed names (labeled
                // bases, per-session series) are validated at
                // their literal source instead. The literal text
                // lives in `raw` — stripping blanks string
                // contents but preserves offsets.
                std::size_t p = open + 1;
                while (p < f->raw.size() &&
                       std::isspace(static_cast<unsigned char>(
                           f->raw[p])))
                    ++p;
                if (p >= f->raw.size() || f->raw[p] != '"')
                    continue;
                const std::size_t q = f->raw.find('"', p + 1);
                if (q == std::string::npos)
                    continue;
                const std::string name =
                    f->raw.substr(p + 1, q - p - 1);
                if (!wellFormedMetricName(name))
                    emit(findings, *f, f->lineOf(pos), id,
                         "metric name '" + name +
                             "' is not layer.component.metric "
                             "form (two or more dot-separated "
                             "lowercase snake_case segments)");
            }
        }
    }
}

} // namespace

std::vector<Finding>
runRules(const Manifest &manifest, const Tree &tree)
{
    std::vector<Finding> findings;
    for (const SourceFile &f : tree.files)
        for (const Finding &a : f.annotationFindings)
            findings.push_back(a);

    ruleLayering(manifest, tree, findings);
    ruleIntrinsics(manifest, tree, findings);
    ruleFpContract(manifest, tree, findings);
    ruleNondeterminism(manifest, tree, findings);
    ruleParallelAccumulate(manifest, tree, findings);
    ruleUnorderedIter(manifest, tree, findings);
    ruleStatusTaxonomy(manifest, tree, findings);
    ruleAtomicsOrder(manifest, tree, findings);
    ruleMetricNaming(manifest, tree, findings);

    std::sort(findings.begin(), findings.end());
    findings.erase(std::unique(findings.begin(), findings.end(),
                               [](const Finding &a,
                                  const Finding &b) {
                                   return a.file == b.file &&
                                       a.line == b.line &&
                                       a.rule == b.rule &&
                                       a.message == b.message;
                               }),
                   findings.end());
    return findings;
}

} // namespace varsaw::lint

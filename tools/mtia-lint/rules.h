#ifndef MTIA_LINT_RULES_H_
#define MTIA_LINT_RULES_H_

/**
 * @file
 * The mtia-lint rule engine: token-level determinism and hygiene
 * rules (wall-clock, unseeded-rng, raw-output, include-guard, ...),
 * the determinism rules that need real tokens (unordered-iteration,
 * pointer-key-ordered, parallel-capture) and the suppression-hygiene
 * rule (bare-allow). Every rule has a `<rule>_bad` / `<rule>_ok`
 * fixture pair under tests/lint_fixtures/rules/, checked per file by
 * the LintFixtures gtest.
 */

#include <string>
#include <vector>

#include "lexer.h"

namespace mtia_lint {

struct Finding
{
    std::string file; ///< path as given (relative to --root when under it)
    int line = 0;
    std::string rule;
    std::string detail;
};

/** Which rule families apply to a file, derived from its path by
 *  fileContext(). */
struct FileContext
{
    bool in_src = false;        ///< raw-output + new determinism rules
    bool telemetry = false;     ///< telemetry-wall-clock applies
    bool sim_core = false;      ///< heap-top-copy applies
    bool dtype_kernel = false;  ///< scalar-hot-loop exempt
    bool simd_kernel = false;   ///< raw-intrinsics exempt (src/core/simd*,
                                ///< src/host/sha256_ni.cc)
    bool is_header = false;     ///< include-guard applies
};

/** The rule context of the file at @p rel, its '/'-separated path
 *  relative to the lint root. @p treat_as_src applies the src/-only
 *  families (raw-output, telemetry-wall-clock, heap-top-copy and the
 *  determinism rules) to every file, as `--treat-as-src` does. */
FileContext fileContext(const std::string &rel, bool treat_as_src);

/** Run every applicable rule over @p lf. Suppressions
 *  (`// sim-lint: allow(<rule>)` on the finding's line) are already
 *  filtered out; a suppression without a trailing justification
 *  yields a bare-allow finding instead. */
std::vector<Finding> runRules(const LexedFile &lf, const std::string &file,
                              const FileContext &ctx);

} // namespace mtia_lint

#endif // MTIA_LINT_RULES_H_

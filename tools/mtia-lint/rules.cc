#include "rules.h"

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <set>

namespace mtia_lint {
namespace {

using Tokens = std::vector<Token>;

bool
isIdent(const Tokens &t, std::size_t i, const char *s)
{
    return i < t.size() && t[i].kind == Tok::Ident && t[i].text == s;
}

bool
isPunct(const Tokens &t, std::size_t i, const char *s)
{
    return i < t.size() && t[i].kind == Tok::Punct && t[i].text == s;
}

bool
anyIdent(const Tokens &t, std::size_t i,
         std::initializer_list<const char *> names)
{
    if (i >= t.size() || t[i].kind != Tok::Ident)
        return false;
    for (const char *n : names)
        if (t[i].text == n)
            return true;
    return false;
}

/** How the token at @p i is qualified: unqualified, `std::`, a
 *  member access (`.`/`->`), or another `::` qualifier. */
enum class Qual { None, Std, Member, Other };

Qual
qualOf(const Tokens &t, std::size_t i)
{
    if (i == 0)
        return Qual::None;
    const Token &p = t[i - 1];
    if (p.kind == Tok::Punct && (p.text == "." || p.text == "->"))
        return Qual::Member;
    if (p.kind == Tok::Punct && p.text == "::")
        return isIdent(t, i - 2, "std") ? Qual::Std : Qual::Other;
    return Qual::None;
}

/** Index just past the matching close for the open paren/brace/bracket
 *  at @p open (which must hold the opener). Returns t.size() if
 *  unbalanced. */
std::size_t
matchClose(const Tokens &t, std::size_t open, const char *o, const char *c)
{
    int depth = 0;
    for (std::size_t i = open; i < t.size(); ++i) {
        if (isPunct(t, i, o))
            ++depth;
        else if (isPunct(t, i, c) && --depth == 0)
            return i + 1;
    }
    return t.size();
}

class RuleRunner
{
  public:
    RuleRunner(const LexedFile &lf, const std::string &file,
               const FileContext &ctx)
        : lf_(lf), t_(lf.tokens), file_(file), ctx_(ctx)
    {
    }

    std::vector<Finding> run();

  private:
    void report(int line, const std::string &rule,
                const std::string &detail)
    {
        auto it = lf_.allows.find(line);
        if (it != lf_.allows.end() && it->second.rules.count(rule))
            return;
        findings_.push_back({file_, line, rule, detail});
    }

    void wallClock();
    void unseededRng();
    void rawOutput();
    void includeGuard();
    void checkSideEffect();
    void telemetryWallClock();
    void duplicateInclude();
    void heapTopCopy();
    void scalarHotLoop();
    void rawIntrinsics();
    void unorderedIteration();
    void pointerKeyOrdered();
    void parallelCapture();
    void bareAllow();

    const LexedFile &lf_;
    const Tokens &t_;
    const std::string &file_;
    const FileContext &ctx_;
    std::vector<Finding> findings_;
};

void
RuleRunner::wallClock()
{
    for (std::size_t i = 0; i < t_.size(); ++i) {
        if (isIdent(t_, i, "std") && isPunct(t_, i + 1, "::") &&
            isIdent(t_, i + 2, "chrono") && isPunct(t_, i + 3, "::") &&
            anyIdent(t_, i + 4, {"system_clock", "steady_clock",
                                 "high_resolution_clock"})) {
            report(t_[i].line, "wall-clock",
                   "host wall-clock time in simulator code; use "
                   "EventQueue ticks");
            continue;
        }
        if (isIdent(t_, i, "gettimeofday") && isPunct(t_, i + 1, "(") &&
            qualOf(t_, i) == Qual::None) {
            report(t_[i].line, "wall-clock",
                   "host wall-clock time in simulator code; use "
                   "EventQueue ticks");
            continue;
        }
        const Qual q = qualOf(t_, i);
        if (q != Qual::None && q != Qual::Std)
            continue;
        if (isIdent(t_, i, "time") && isPunct(t_, i + 1, "(") &&
            (anyIdent(t_, i + 2, {"NULL", "nullptr"}) ||
             (i + 2 < t_.size() && t_[i + 2].kind == Tok::Number &&
              t_[i + 2].text == "0") ||
             isPunct(t_, i + 2, "&"))) {
            report(t_[i].line, "wall-clock",
                   "host wall-clock time in simulator code; use "
                   "EventQueue ticks");
        }
        if (isIdent(t_, i, "clock") && isPunct(t_, i + 1, "(") &&
            isPunct(t_, i + 2, ")")) {
            report(t_[i].line, "wall-clock",
                   "host wall-clock time in simulator code; use "
                   "EventQueue ticks");
        }
    }
}

void
RuleRunner::unseededRng()
{
    for (std::size_t i = 0; i < t_.size(); ++i) {
        const Qual q = qualOf(t_, i);
        if (anyIdent(t_, i, {"rand", "srand"}) &&
            isPunct(t_, i + 1, "(") &&
            (q == Qual::None || q == Qual::Std)) {
            report(t_[i].line, "unseeded-rng",
                   "unseeded/global randomness; use an explicitly "
                   "seeded mtia::Rng");
            continue;
        }
        if (!isIdent(t_, i, "std") || !isPunct(t_, i + 1, "::"))
            continue;
        if (isIdent(t_, i + 2, "random_device")) {
            report(t_[i].line, "unseeded-rng",
                   "unseeded/global randomness; use an explicitly "
                   "seeded mtia::Rng");
            continue;
        }
        if (anyIdent(t_, i + 2, {"mt19937", "mt19937_64"}) &&
            i + 3 < t_.size() && t_[i + 3].kind == Tok::Ident) {
            // A default construction: `std::mt19937 g;` / `g{}` / `g()`.
            if (isPunct(t_, i + 4, ";") ||
                (isPunct(t_, i + 4, "{") && isPunct(t_, i + 5, "}")) ||
                (isPunct(t_, i + 4, "(") && isPunct(t_, i + 5, ")"))) {
                report(t_[i].line, "unseeded-rng",
                       "unseeded/global randomness; use an explicitly "
                       "seeded mtia::Rng");
            }
        }
    }
}

void
RuleRunner::rawOutput()
{
    if (!ctx_.in_src)
        return;
    for (std::size_t i = 0; i < t_.size(); ++i) {
        if (isIdent(t_, i, "std") && isPunct(t_, i + 1, "::") &&
            anyIdent(t_, i + 2, {"cout", "cerr"})) {
            report(t_[i].line, "raw-output",
                   "direct console output in src/; report through "
                   "MTIA_CHECK or telemetry");
            continue;
        }
        if (qualOf(t_, i) != Qual::None)
            continue;
        const bool hit =
            (anyIdent(t_, i, {"printf", "puts"}) &&
             isPunct(t_, i + 1, "(")) ||
            (isIdent(t_, i, "fprintf") && isPunct(t_, i + 1, "(") &&
             isIdent(t_, i + 2, "stdout"));
        if (hit)
            report(t_[i].line, "raw-output",
                   "direct console output in src/; report through "
                   "MTIA_CHECK or telemetry");
    }
}

void
RuleRunner::includeGuard()
{
    if (!ctx_.is_header)
        return;
    const Directive *ifndef = nullptr;
    const Directive *define = nullptr;
    for (std::size_t i = 0; i < lf_.directives.size(); ++i) {
        const Directive &d = lf_.directives[i];
        if (!ifndef && d.name == "pragma" && !d.args.empty() &&
            d.args[0].kind == Tok::Ident && d.args[0].text == "once") {
            report(d.line, "include-guard",
                   "#pragma once; use an #ifndef guard (repo "
                   "convention)");
            return;
        }
        if (d.name == "ifndef") {
            ifndef = &d;
            // The #define must be the immediately following line.
            if (i + 1 < lf_.directives.size() &&
                lf_.directives[i + 1].name == "define" &&
                lf_.directives[i + 1].line == d.line + 1)
                define = &lf_.directives[i + 1];
            break;
        }
    }
    const auto sym = [](const Directive *d) -> std::string {
        return (d && !d->args.empty() && d->args[0].kind == Tok::Ident)
                   ? d->args[0].text
                   : std::string();
    };
    if (!ifndef || !define || sym(ifndef).empty() ||
        sym(define).empty()) {
        report(1, "include-guard",
               "missing #ifndef/#define include guard");
        return;
    }
    if (sym(ifndef) != sym(define))
        report(define->line, "include-guard",
               "guard mismatch: #ifndef " + sym(ifndef) +
                   " vs #define " + sym(define));
}

void
RuleRunner::checkSideEffect()
{
    static const std::set<std::string> kChecks = {
        "MTIA_CHECK",     "MTIA_DCHECK",    "MTIA_CHECK_EQ",
        "MTIA_CHECK_NE",  "MTIA_CHECK_LT",  "MTIA_CHECK_LE",
        "MTIA_CHECK_GT",  "MTIA_CHECK_GE",  "MTIA_DCHECK_EQ",
        "MTIA_DCHECK_NE", "MTIA_DCHECK_LT", "MTIA_DCHECK_LE",
        "MTIA_DCHECK_GT", "MTIA_DCHECK_GE",
    };
    for (std::size_t i = 0; i + 1 < t_.size(); ++i) {
        if (t_[i].kind != Tok::Ident || !kChecks.count(t_[i].text) ||
            !isPunct(t_, i + 1, "("))
            continue;
        const std::size_t end = matchClose(t_, i + 1, "(", ")");
        for (std::size_t j = i + 2; j + 1 < end + 1 && j < end - 1;
             ++j) {
            if (t_[j].kind == Tok::Punct &&
                (t_[j].text == "++" || t_[j].text == "--" ||
                 t_[j].text == "=")) {
                report(t_[i].line, "check-side-effect",
                       "side effect inside a check condition; "
                       "MTIA_DCHECK conditions vanish in release "
                       "builds");
                break;
            }
        }
        i = end > i ? end - 1 : i;
    }
}

void
RuleRunner::telemetryWallClock()
{
    if (!ctx_.telemetry)
        return;
    static const std::set<std::string> kTimeHeaders = {
        "<chrono>", "<ctime>", "<time.h>", "<sys/time.h>"};
    for (const Directive &d : lf_.directives) {
        if (d.name == "include" && !d.args.empty() &&
            kTimeHeaders.count(d.args[0].text)) {
            report(d.line, "telemetry-wall-clock",
                   "time-source include or std::chrono in "
                   "src/telemetry/; exports must be derived from sim "
                   "ticks only");
        }
    }
    for (std::size_t i = 0; i + 2 < t_.size(); ++i) {
        if (isIdent(t_, i, "std") && isPunct(t_, i + 1, "::") &&
            isIdent(t_, i + 2, "chrono"))
            report(t_[i].line, "telemetry-wall-clock",
                   "time-source include or std::chrono in "
                   "src/telemetry/; exports must be derived from sim "
                   "ticks only");
    }
}

void
RuleRunner::duplicateInclude()
{
    std::map<std::string, int> first;
    for (const Directive &d : lf_.directives) {
        if (d.name != "include" || d.args.empty())
            continue;
        const std::string &target = d.args[0].text;
        auto [it, inserted] = first.emplace(target, d.line);
        if (!inserted)
            report(d.line, "duplicate-include",
                   target + " already included on line " +
                       std::to_string(it->second));
    }
}

void
RuleRunner::heapTopCopy()
{
    if (!ctx_.sim_core)
        return;
    for (std::size_t i = 2; i < t_.size(); ++i) {
        if (!isIdent(t_, i, "top") || !isPunct(t_, i + 1, "(") ||
            !isPunct(t_, i + 2, ")"))
            continue;
        if (!isPunct(t_, i - 1, ".") && !isPunct(t_, i - 1, "->"))
            continue;
        // Walk the postfix chain (`a.b->c.top()`) back to its base.
        std::size_t k = i - 2;
        if (k >= t_.size() || t_[k].kind != Tok::Ident)
            continue;
        while (k >= 2 &&
               (isPunct(t_, k - 1, ".") || isPunct(t_, k - 1, "->")) &&
               t_[k - 2].kind == Tok::Ident)
            k -= 2;
        if (k == 0 || !isPunct(t_, k - 1, "="))
            continue;
        // `const Entry &e = q.top()` binds a reference: exempt.
        const std::size_t eq = k - 1;
        if (eq >= 2 && t_[eq - 1].kind == Tok::Ident &&
            (isPunct(t_, eq - 2, "&") || isPunct(t_, eq - 2, "&&")))
            continue;
        report(t_[eq].line, "heap-top-copy",
               "copy of a priority-queue top before pop; entries "
               "carry callbacks, so this deep-copies a closure per "
               "dispatch — bind a const reference or move first");
    }
}

void
RuleRunner::scalarHotLoop()
{
    if (ctx_.dtype_kernel)
        return;
    std::set<int> loop_lines;
    for (const Token &tok : t_)
        if (tok.kind == Tok::Ident &&
            (tok.text == "for" || tok.text == "while"))
            loop_lines.insert(tok.line);
    for (std::size_t i = 0; i + 1 < t_.size(); ++i) {
        if (!anyIdent(t_, i, {"fp32ToFp16Bits", "fp16BitsToFp32",
                              "fp32ToBf16Bits", "bf16BitsToFp32"}) ||
            !isPunct(t_, i + 1, "("))
            continue;
        const int line = t_[i].line;
        auto it = loop_lines.lower_bound(line - 4);
        if (it != loop_lines.end() && *it <= line)
            report(line, "scalar-hot-loop",
                   "per-element dtype conversion in a loop; use "
                   "convertBuffer so the batch kernels (core/simd.h) "
                   "run instead");
    }
}

/** NEON-intrinsic-shaped name: starts `v<lower>`, ends with a lane
 *  type suffix `_[fsup](8|16|32|64)` — vld1q_f32, vmulq_s32, … */
bool
neonLike(const std::string &s)
{
    if (s.size() < 4 || s[0] != 'v' || s[1] < 'a' || s[1] > 'z')
        return false;
    const std::size_t us = s.rfind('_');
    if (us == std::string::npos || us + 2 > s.size() - 1)
        return false;
    const char lane = s[us + 1];
    if (lane != 'f' && lane != 's' && lane != 'u' && lane != 'p')
        return false;
    const std::string bits = s.substr(us + 2);
    return bits == "8" || bits == "16" || bits == "32" || bits == "64";
}

void
RuleRunner::rawIntrinsics()
{
    if (!ctx_.in_src || ctx_.simd_kernel)
        return;
    for (std::size_t i = 0; i + 1 < t_.size(); ++i) {
        if (t_[i].kind != Tok::Ident || !isPunct(t_, i + 1, "(") ||
            qualOf(t_, i) != Qual::None)
            continue;
        const std::string &s = t_[i].text;
        if (s.compare(0, 3, "_mm") != 0 && !neonLike(s))
            continue;
        report(t_[i].line, "raw-intrinsics",
               "raw SIMD intrinsic outside the kernel TUs (src/core/simd*, "
               "src/host/sha256_ni.cc); go through "
               "the core/simd.h wrappers so every dispatch tier stays "
               "bit-exact and portable");
    }
}

void
RuleRunner::unorderedIteration()
{
    if (!ctx_.in_src)
        return;
    // Pass 1: names declared with an unordered container type.
    std::set<std::string> unordered;
    for (std::size_t i = 0; i + 3 < t_.size(); ++i) {
        if (!isIdent(t_, i, "std") || !isPunct(t_, i + 1, "::") ||
            !anyIdent(t_, i + 2, {"unordered_map", "unordered_set",
                                  "unordered_multimap",
                                  "unordered_multiset"}) ||
            !isPunct(t_, i + 3, "<"))
            continue;
        int depth = 1;
        std::size_t j = i + 4;
        for (; j < t_.size() && depth > 0; ++j) {
            if (isPunct(t_, j, "<"))
                ++depth;
            else if (isPunct(t_, j, ">"))
                --depth;
            else if (isPunct(t_, j, ">>"))
                depth -= 2;
        }
        while (j < t_.size() &&
               (isPunct(t_, j, "&") || isPunct(t_, j, "*") ||
                isPunct(t_, j, "&&") || isIdent(t_, j, "const")))
            ++j;
        if (j < t_.size() && t_[j].kind == Tok::Ident &&
            !isPunct(t_, j + 1, "("))
            unordered.insert(t_[j].text);
    }
    if (unordered.empty())
        return;
    const char *detail =
        "iteration over an unordered container; element order is "
        "hash/seed dependent and can leak into output or "
        "accumulation — use a sorted snapshot or an ordered "
        "container";
    for (std::size_t i = 0; i < t_.size(); ++i) {
        // Range-for whose range expression names an unordered var.
        if (isIdent(t_, i, "for") && isPunct(t_, i + 1, "(")) {
            const std::size_t end = matchClose(t_, i + 1, "(", ")");
            std::size_t colon = t_.size();
            int depth = 0;
            for (std::size_t j = i + 1; j < end; ++j) {
                if (isPunct(t_, j, "("))
                    ++depth;
                else if (isPunct(t_, j, ")"))
                    --depth;
                else if (depth == 1 && isPunct(t_, j, ":")) {
                    colon = j;
                    break;
                }
            }
            for (std::size_t j = colon + 1; j + 1 < end + 1 && j < end;
                 ++j) {
                if (j < t_.size() && t_[j].kind == Tok::Ident &&
                    unordered.count(t_[j].text)) {
                    report(t_[i].line, "unordered-iteration", detail);
                    break;
                }
            }
        }
        // Explicit iterator walks: m.begin() / m.cbegin(). end() alone
        // stays clean — `it != m.end()` is the find-lookup idiom.
        if (t_[i].kind == Tok::Ident && unordered.count(t_[i].text) &&
            (isPunct(t_, i + 1, ".") || isPunct(t_, i + 1, "->")) &&
            anyIdent(t_, i + 2, {"begin", "cbegin", "rbegin"}) &&
            isPunct(t_, i + 3, "("))
            report(t_[i].line, "unordered-iteration", detail);
    }
}

void
RuleRunner::pointerKeyOrdered()
{
    if (!ctx_.in_src)
        return;
    for (std::size_t i = 0; i + 3 < t_.size(); ++i) {
        const bool is_map = isIdent(t_, i + 2, "map");
        const bool is_set = isIdent(t_, i + 2, "set");
        if (!isIdent(t_, i, "std") || !isPunct(t_, i + 1, "::") ||
            (!is_map && !is_set) || !isPunct(t_, i + 3, "<"))
            continue;
        int depth = 1;
        std::size_t args = 1;
        std::size_t last_in_first_arg = 0;
        bool in_first = true;
        for (std::size_t j = i + 4; j < t_.size() && depth > 0; ++j) {
            if (isPunct(t_, j, "<")) {
                ++depth;
            } else if (isPunct(t_, j, ">")) {
                --depth;
            } else if (isPunct(t_, j, ">>")) {
                depth -= 2;
            } else if (depth == 1 && isPunct(t_, j, ",")) {
                ++args;
                in_first = false;
            } else if (in_first && depth >= 1) {
                last_in_first_arg = j;
            }
        }
        // A raw-pointer key under the default std::less<T*> compares
        // addresses: allocation-order-dependent iteration. A custom
        // comparator (extra template argument) opts into an explicit
        // order and is exempt.
        if (last_in_first_arg != 0 &&
            isPunct(t_, last_in_first_arg, "*") &&
            args <= (is_map ? 2u : 1u))
            report(t_[i].line, "pointer-key-ordered",
                   "ordered container keyed by raw pointer; "
                   "iteration order depends on allocation addresses "
                   "— key by a stable id or supply a comparator");
    }
}

void
RuleRunner::parallelCapture()
{
    if (!ctx_.in_src)
        return;
    static const std::set<std::string> kMutators = {
        "push_back", "emplace_back", "insert",  "emplace", "clear",
        "erase",     "resize",       "pop_back", "push",   "pop",
    };
    static const std::set<std::string> kCompound = {
        "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};
    for (std::size_t i = 0; i + 1 < t_.size(); ++i) {
        if (!anyIdent(t_, i, {"parallelFor"}) ||
            !isPunct(t_, i + 1, "("))
            continue;
        const std::size_t call_end = matchClose(t_, i + 1, "(", ")");
        // Locate the lambda argument: a '[' right after '(' or ','.
        std::size_t lb = t_.size();
        for (std::size_t j = i + 2; j < call_end; ++j) {
            if (isPunct(t_, j, "[") &&
                (isPunct(t_, j - 1, "(") || isPunct(t_, j - 1, ","))) {
                lb = j;
                break;
            }
        }
        if (lb == t_.size())
            continue;
        const std::size_t cap_end = matchClose(t_, lb, "[", "]");
        bool all_by_ref = false;
        std::set<std::string> ref_caps;
        for (std::size_t j = lb + 1; j + 1 < cap_end + 1 && j < cap_end - 1;
             ++j) {
            if (isPunct(t_, j, "&")) {
                if (j + 1 < t_.size() && t_[j + 1].kind == Tok::Ident &&
                    j + 1 < cap_end - 1)
                    ref_caps.insert(t_[j + 1].text);
                else
                    all_by_ref = true;
            }
        }
        if (!all_by_ref && ref_caps.empty())
            continue;

        // Parameter names, then the body.
        std::set<std::string> declared;
        std::size_t k = cap_end;
        if (isPunct(t_, k, "(")) {
            const std::size_t pend = matchClose(t_, k, "(", ")");
            std::string last_ident;
            for (std::size_t j = k + 1; j + 1 < pend + 1 && j < pend;
                 ++j) {
                if (isPunct(t_, j, ",") && j < pend - 1) {
                    if (!last_ident.empty())
                        declared.insert(last_ident);
                    last_ident.clear();
                } else if (j < t_.size() && t_[j].kind == Tok::Ident &&
                           !isPunct(t_, j + 1, "::")) {
                    last_ident = t_[j].text;
                }
            }
            if (!last_ident.empty())
                declared.insert(last_ident);
            k = pend;
        }
        while (k < call_end && !isPunct(t_, k, "{"))
            ++k;
        if (k >= call_end)
            continue;
        const std::size_t body_end = matchClose(t_, k, "{", "}");

        // Local declarations inside the body (heuristic: `Type name`
        // where the name is followed by '=', ';', ',', ':' or '{').
        for (std::size_t j = k + 1; j + 1 < body_end; ++j) {
            if (t_[j].kind != Tok::Ident)
                continue;
            const bool decl_next =
                isPunct(t_, j + 1, "=") || isPunct(t_, j + 1, ";") ||
                isPunct(t_, j + 1, ",") || isPunct(t_, j + 1, ":") ||
                isPunct(t_, j + 1, "{");
            if (!decl_next)
                continue;
            const Token &p = t_[j - 1];
            const bool decl_prev =
                (p.kind == Tok::Ident && p.text != "return" &&
                 p.text != "else" && p.text != "co_return") ||
                isPunct(t_, j - 1, ">") || isPunct(t_, j - 1, "*") ||
                isPunct(t_, j - 1, "&") || isPunct(t_, j - 1, "&&");
            if (decl_prev)
                declared.insert(t_[j].text);
        }

        const auto captured = [&](const std::string &name) {
            if (declared.count(name))
                return false;
            return all_by_ref || ref_caps.count(name) > 0;
        };
        const char *detail =
            "parallelFor lambda mutates by-reference "
            "captured state shared across indices; follow the "
            "index-ordered reduction idiom of core/parallel.h "
            "(write to slot [i], reduce after the join)";

        for (std::size_t j = k + 1; j + 1 < body_end; ++j) {
            if (t_[j].kind != Tok::Punct)
                continue;
            const std::string &op = t_[j].text;
            const bool assign = op == "=" || kCompound.count(op);
            const bool incdec = op == "++" || op == "--";
            if (!assign && !incdec)
                continue;
            // Left operand (assignment, postfix ++/--).
            std::size_t b = j;
            if (b >= 1 && t_[b - 1].kind == Tok::Ident) {
                std::size_t base = b - 1;
                while (base >= 2 &&
                       (isPunct(t_, base - 1, ".") ||
                        isPunct(t_, base - 1, "->")) &&
                       t_[base - 2].kind == Tok::Ident)
                    base -= 2;
                if (captured(t_[base].text)) {
                    report(t_[j].line, "parallel-capture", detail);
                    continue;
                }
            }
            // Prefix ++/-- on a captured name.
            if (incdec && j + 1 < body_end &&
                t_[j + 1].kind == Tok::Ident &&
                !isPunct(t_, j + 2, "[") && captured(t_[j + 1].text))
                report(t_[j].line, "parallel-capture", detail);
        }
        // Container mutators on captured names: `shared.push_back(x)`.
        for (std::size_t j = k + 2; j + 1 < body_end; ++j) {
            if (t_[j].kind != Tok::Ident || !kMutators.count(t_[j].text) ||
                !isPunct(t_, j + 1, "(") ||
                (!isPunct(t_, j - 1, ".") && !isPunct(t_, j - 1, "->")))
                continue;
            std::size_t base = j - 2;
            if (base >= t_.size() || t_[base].kind != Tok::Ident)
                continue; // `v[i].push_back(...)`: indexed, exempt
            while (base >= 2 &&
                   (isPunct(t_, base - 1, ".") ||
                    isPunct(t_, base - 1, "->")) &&
                   t_[base - 2].kind == Tok::Ident)
                base -= 2;
            if (captured(t_[base].text))
                report(t_[j].line, "parallel-capture", detail);
        }
    }
}

void
RuleRunner::bareAllow()
{
    for (const auto &[line, allow] : lf_.allows) {
        if (!allow.justified)
            report(line, "bare-allow",
                   "sim-lint suppression without a justification; "
                   "append the reason after the closing parenthesis");
    }
}

std::vector<Finding>
RuleRunner::run()
{
    duplicateInclude();
    wallClock();
    unseededRng();
    rawOutput();
    telemetryWallClock();
    scalarHotLoop();
    rawIntrinsics();
    heapTopCopy();
    includeGuard();
    checkSideEffect();
    unorderedIteration();
    pointerKeyOrdered();
    parallelCapture();
    bareAllow();
    std::sort(findings_.begin(), findings_.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    // One finding per (line, rule): a rule that matches a physical
    // line several times reports it once.
    findings_.erase(
        std::unique(findings_.begin(), findings_.end(),
                    [](const Finding &a, const Finding &b) {
                        return a.line == b.line && a.rule == b.rule;
                    }),
        findings_.end());
    return findings_;
}

} // namespace

FileContext
fileContext(const std::string &rel, bool treat_as_src)
{
    const auto under = [&](const char *prefix) {
        return rel.rfind(prefix, 0) == 0;
    };
    const std::string ext = std::filesystem::path(rel).extension();
    FileContext ctx;
    ctx.in_src = under("src/") || treat_as_src;
    ctx.telemetry = under("src/telemetry/") || treat_as_src;
    ctx.sim_core = under("src/sim/") || treat_as_src;
    ctx.dtype_kernel = under("src/tensor/dtype.");
    ctx.simd_kernel =
        under("src/core/simd") || rel == "src/host/sha256_ni.cc";
    ctx.is_header = ext == ".h" || ext == ".hpp";
    return ctx;
}

std::vector<Finding>
runRules(const LexedFile &lf, const std::string &file,
         const FileContext &ctx)
{
    return RuleRunner(lf, file, ctx).run();
}

} // namespace mtia_lint

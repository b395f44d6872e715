#ifndef MTIA_CORE_CHECK_H_
#define MTIA_CORE_CHECK_H_

/**
 * @file
 * Runtime contract checks for simulator invariants.
 *
 * MTIA_CHECK(cond) enforces an invariant in every build; on violation
 * it reports file, line, the stringified condition, and any streamed
 * message, then invokes the installed failure handler. The default
 * handler prints to stderr and aborts, so a violated contract can
 * never produce silently-wrong simulation results. Tests install a
 * throwing handler (ScopedCheckThrow) to assert that a contract fires
 * without killing the test binary.
 *
 * MTIA_CHECK is the only failure path in the tree. Besides internal
 * invariants it covers rejected configs (a non-positive or non-finite
 * frequency, bandwidth or qps; an unsupported PCIe generation) and
 * failed file exports (trace, metrics and bench report files), so
 * every one of them is testable in-process. Config checks use the
 * comparison forms (MTIA_CHECK_GT(ghz, 0.0)), which NaN fails.
 *
 * Conventions:
 *  - MTIA_CHECK*   — preconditions and invariants that guard the
 *                    correctness of results; enabled in all builds.
 *  - MTIA_DCHECK*  — hot-path checks (per-element bounds, per-event
 *                    monotonicity); compiled out when NDEBUG is set
 *                    unless MTIA_FORCE_DCHECK is defined.
 *  - MTIA_UNREACHABLE — marks control flow that must never execute
 *                    (e.g. after an exhaustive switch).
 *
 * Check conditions must be side-effect free: a condition that mutates
 * state would behave differently between release and debug builds for
 * MTIA_DCHECK. mtia-lint's check-side-effect rule enforces this.
 *
 * Comparison checks evaluate each operand exactly once and print both
 * values on failure:
 *
 *     MTIA_CHECK_LE(when, deadline) << "while scheduling " << name;
 */

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace mtia {

/** Thrown by the handler ScopedCheckThrow installs. */
class CheckFailedError : public std::logic_error
{
  public:
    explicit CheckFailedError(const std::string &what)
        : std::logic_error(what) {}
};

/** Everything known about one contract violation. */
struct CheckContext
{
    const char *file;
    int line;
    /** Condition text, operand values, and any streamed message. */
    std::string message;
};

/**
 * Called when a contract is violated. The handler must not return
 * normally: it either throws (test handlers) or terminates the
 * process. If it does return, the process aborts anyway.
 */
using CheckFailureHandler = void (*)(const CheckContext &);

/** Install @p handler; returns the previously installed handler. */
CheckFailureHandler setCheckFailureHandler(CheckFailureHandler handler);

/** The currently installed handler (the default aborting one if none
 * was explicitly set). */
CheckFailureHandler getCheckFailureHandler();

/** RAII: install a handler for one scope, restoring the old one. */
class ScopedCheckFailureHandler
{
  public:
    explicit ScopedCheckFailureHandler(CheckFailureHandler handler)
        : prev_(setCheckFailureHandler(handler)) {}
    ~ScopedCheckFailureHandler() { setCheckFailureHandler(prev_); }

    ScopedCheckFailureHandler(const ScopedCheckFailureHandler &) = delete;
    ScopedCheckFailureHandler &
    operator=(const ScopedCheckFailureHandler &) = delete;

  private:
    CheckFailureHandler prev_;
};

namespace detail {

/** Handler that throws CheckFailedError (what ScopedCheckThrow uses). */
[[noreturn]] void throwingCheckHandler(const CheckContext &ctx);

} // namespace detail

/**
 * RAII for tests: while alive, a violated contract throws
 * CheckFailedError instead of aborting, so EXPECT_THROW can assert
 * that a precondition fires.
 */
class ScopedCheckThrow : public ScopedCheckFailureHandler
{
  public:
    ScopedCheckThrow()
        : ScopedCheckFailureHandler(&detail::throwingCheckHandler) {}
};

namespace detail {

/**
 * Invoke the installed handler. Never returns: the handler throws or
 * kills the process; if it returns anyway, abort.
 */
[[noreturn]] void checkFailed(const CheckContext &ctx);

/**
 * Accumulates the failure message for one violated check; its
 * destructor (end of the check's full-expression) reports the failure.
 */
class CheckMessageBuilder
{
  public:
    CheckMessageBuilder(const char *file, int line, std::string head)
        : file_(file), line_(line)
    {
        os_ << std::move(head);
    }

    /** Adopts (and frees) @p head, a checkOpFailure result. */
    CheckMessageBuilder(const char *file, int line,
                        std::unique_ptr<const std::string> head)
        : file_(file), line_(line)
    {
        os_ << *head;
    }

    CheckMessageBuilder(const CheckMessageBuilder &) = delete;
    CheckMessageBuilder &operator=(const CheckMessageBuilder &) = delete;

    /** Reports the failure. noexcept(false): the handler may throw. */
    ~CheckMessageBuilder() noexcept(false)
    {
        checkFailed(CheckContext{file_, line_, os_.str()});
    }

    std::ostream &stream() { return os_; }

  private:
    const char *file_;
    int line_;
    std::ostringstream os_;
};

/** Swallows the ostream& so a check expression has type void. */
struct CheckVoidify
{
    void operator&(std::ostream &) const {}
};

/**
 * The "head (a vs. b)" failure text, built only once a comparison has
 * failed; kept out of line so the success path stays a bare compare.
 */
template <typename A, typename B>
[[gnu::cold, gnu::noinline]] std::string *
checkOpText(const char *head, const A &a, const B &b)
{
    std::ostringstream os;
    os << head << " (" << a << " vs. " << b << ")";
    return new std::string(os.str());
}

/**
 * Evaluate one comparison: nullptr when it holds, else the failure
 * text, which the CheckMessageBuilder constructed right after adopts.
 * Each operand is evaluated exactly once (as an argument).
 */
template <typename A, typename B, typename Op>
inline std::string *
checkOpFailure(const char *head, const A &a, const B &b, Op op)
{
    if (op(a, b)) [[likely]]
        return nullptr;
    return checkOpText(head, a, b);
}

// Comparison functors: plain structs (not lambdas) so the macro
// expansion stays cheap and the operand types drive overload
// resolution exactly as the raw operator would.
struct CheckOpEq { template <typename A, typename B> bool operator()(const A &a, const B &b) const { return a == b; } };
struct CheckOpNe { template <typename A, typename B> bool operator()(const A &a, const B &b) const { return a != b; } };
struct CheckOpLt { template <typename A, typename B> bool operator()(const A &a, const B &b) const { return a < b; } };
struct CheckOpLe { template <typename A, typename B> bool operator()(const A &a, const B &b) const { return a <= b; } };
struct CheckOpGt { template <typename A, typename B> bool operator()(const A &a, const B &b) const { return a > b; } };
struct CheckOpGe { template <typename A, typename B> bool operator()(const A &a, const B &b) const { return a >= b; } };

[[noreturn]] void unreachableImpl(const char *file, int line,
                                  const char *what);

} // namespace detail

/** Enforce @p cond in every build; streams extra context. */
#define MTIA_CHECK(cond) \
    (cond) \
        ? (void)0 \
        : ::mtia::detail::CheckVoidify() & \
          ::mtia::detail::CheckMessageBuilder( \
              __FILE__, __LINE__, "MTIA_CHECK(" #cond ") failed") \
              .stream()

// The while-loop runs at most once: the builder's destructor at the
// end of the body's full-expression throws or terminates. On success
// the condition is the comparison and a null test, nothing more.
#define MTIA_CHECK_OP_(opname, functor, a, b) \
    while (const std::string *mtiaCheckFail_ = \
               ::mtia::detail::checkOpFailure( \
                   "MTIA_CHECK_" #opname "(" #a ", " #b ") failed", (a), \
                   (b), ::mtia::detail::functor{})) \
    ::mtia::detail::CheckVoidify() & \
        ::mtia::detail::CheckMessageBuilder( \
            __FILE__, __LINE__, \
            std::unique_ptr<const std::string>(mtiaCheckFail_)) \
            .stream()

#define MTIA_CHECK_EQ(a, b) MTIA_CHECK_OP_(EQ, CheckOpEq, a, b)
#define MTIA_CHECK_NE(a, b) MTIA_CHECK_OP_(NE, CheckOpNe, a, b)
#define MTIA_CHECK_LT(a, b) MTIA_CHECK_OP_(LT, CheckOpLt, a, b)
#define MTIA_CHECK_LE(a, b) MTIA_CHECK_OP_(LE, CheckOpLe, a, b)
#define MTIA_CHECK_GT(a, b) MTIA_CHECK_OP_(GT, CheckOpGt, a, b)
#define MTIA_CHECK_GE(a, b) MTIA_CHECK_OP_(GE, CheckOpGe, a, b)

#if !defined(NDEBUG) || defined(MTIA_FORCE_DCHECK)
#define MTIA_DCHECK_ENABLED 1
#else
#define MTIA_DCHECK_ENABLED 0
#endif

#if MTIA_DCHECK_ENABLED
#define MTIA_DCHECK(cond) MTIA_CHECK(cond)
#define MTIA_DCHECK_EQ(a, b) MTIA_CHECK_EQ(a, b)
#define MTIA_DCHECK_NE(a, b) MTIA_CHECK_NE(a, b)
#define MTIA_DCHECK_LT(a, b) MTIA_CHECK_LT(a, b)
#define MTIA_DCHECK_LE(a, b) MTIA_CHECK_LE(a, b)
#define MTIA_DCHECK_GT(a, b) MTIA_CHECK_GT(a, b)
#define MTIA_DCHECK_GE(a, b) MTIA_CHECK_GE(a, b)
#else
// Dead but still type-checked; the operands are never evaluated.
#define MTIA_DCHECK(cond) while (false) MTIA_CHECK(cond)
#define MTIA_DCHECK_EQ(a, b) while (false) MTIA_CHECK_EQ(a, b)
#define MTIA_DCHECK_NE(a, b) while (false) MTIA_CHECK_NE(a, b)
#define MTIA_DCHECK_LT(a, b) while (false) MTIA_CHECK_LT(a, b)
#define MTIA_DCHECK_LE(a, b) while (false) MTIA_CHECK_LE(a, b)
#define MTIA_DCHECK_GT(a, b) while (false) MTIA_CHECK_GT(a, b)
#define MTIA_DCHECK_GE(a, b) while (false) MTIA_CHECK_GE(a, b)
#endif

/** Mark control flow that must never execute. */
#define MTIA_UNREACHABLE(what) \
    ::mtia::detail::unreachableImpl(__FILE__, __LINE__, (what))

} // namespace mtia

#endif // MTIA_CORE_CHECK_H_

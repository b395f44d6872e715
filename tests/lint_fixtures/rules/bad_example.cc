// Deliberately broken aggregate fixture seeding violations of many
// rules in one file. It is never compiled — the LintFixtures gtest
// expects at least one finding here, and `mtia_lint_fixture_rules`
// asserts the CLI exits non-zero over this directory.

// telemetry-wall-clock: time-source includes (the fixture is linted
// with --treat-as-src, which also applies the src/telemetry/ rule).
#include <chrono>
#include <cstdio>
#include <ctime>
#include <random>

// duplicate-include: the same header pulled in twice.
#include <cstdio>

namespace mtia {

int
violations()
{
    // wall-clock: host time in simulator code.
    auto t0 = std::chrono::system_clock::now();
    (void)t0;

    // unseeded-rng: global C PRNG and default-constructed engines.
    int r = rand();
    std::random_device rd;
    std::mt19937 gen;

    // raw-output: console output in src/ (use MTIA_CHECK or telemetry).
    printf("%d\n", r);

    // heap-top-copy: copying a priority-queue top before pop
    // deep-copies the entry's callback on every dispatch.
    struct FakeHeap
    {
        int top() const { return 0; }
        void pop() {}
    } heap_;
    int copied = heap_.top();
    heap_.pop();
    (void)copied;

    // check-side-effect: mutation inside a check condition.
    int n = static_cast<int>(rd()) + static_cast<int>(gen());
#define MTIA_CHECK(x) (void)(x)
    MTIA_CHECK(n++ > 0);
#undef MTIA_CHECK
    return n;
}

} // namespace mtia

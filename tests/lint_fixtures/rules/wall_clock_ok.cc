// Negative fixture: wall-clock — time-like spellings that must stay
// clean. Never compiled.

#include <cstdint>

// Simulated time derives from EventQueue ticks, never the host clock.
std::uint64_t
toMicros(std::uint64_t ticks)
{
    return ticks / 1000;
}

struct RateLimiter
{
    // A member named time( takes an ordinary argument: not the libc
    // time(NULL) pattern.
    long time(long x) const { return x; }
};

long
fine(const RateLimiter &r)
{
    long v = r.time(0); // member call: qualified, exempt
    // A word-prefixed identifier must not match the clock() rule.
    const auto rate_clock = []() { return 7L; };
    v += rate_clock();
    // "clock()" and "time(NULL)" in a string literal stay invisible.
    const char *s = "wall: clock() time(NULL) gettimeofday(";
    // std::chrono::steady_clock in a comment is not a finding.
    return v + static_cast<long>(s[0]);
}

// Positive fixture: wall-clock — host time sources in simulator
// code. Never compiled. Linted with --treat-as-src, so the
// telemetry-wall-clock rule fires on the same lines, alongside
// wall-clock.

#include <chrono>
#include <sys/time.h>

long
violations()
{
    auto a = std::chrono::system_clock::now();
    auto b = std::chrono::steady_clock::now();
    auto c = std::chrono::high_resolution_clock::now();
    long t = time(nullptr);
    long u = clock();
    timeval tv;
    gettimeofday(&tv, nullptr);
    (void)a;
    (void)b;
    (void)c;
    return t + u + tv.tv_sec;
}

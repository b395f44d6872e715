#ifndef MTIA_BENCH_BENCH_UTIL_H_
#define MTIA_BENCH_BENCH_UTIL_H_

/**
 * @file
 * Shared formatting helpers for the table/figure reproduction
 * binaries: every bench prints a banner naming the paper artifact it
 * regenerates, then rows of "paper vs measured".
 */

#include <chrono>
#include <cstdio>
#include <string>

namespace mtia::bench {

/**
 * Wall-clock stopwatch for host timings: bench rows and perfbench's
 * run deadlines. A bench records what it measures only through
 * Report::wallClock, so the values land only in the report's
 * `wall_clock` array, which the byte-identical golden check drops.
 * Simulated results must never depend on it.
 */
class WallTimer
{
  public:
    WallTimer()
        : start_(std::chrono::steady_clock::now()) // sim-lint: allow(wall-clock) — sanctioned speedup stopwatch
    {
    }

    /** Seconds since construction. */
    double
    seconds() const
    {
        const auto now =
            std::chrono::steady_clock::now(); // sim-lint: allow(wall-clock) — sanctioned speedup stopwatch
        return std::chrono::duration<double>(now - start_).count();
    }

  private:
    std::chrono::steady_clock::time_point start_; // sim-lint: allow(wall-clock) — sanctioned speedup stopwatch
};

inline void
banner(const std::string &artifact, const std::string &summary)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", artifact.c_str());
    std::printf("%s\n", summary.c_str());
    std::printf("==============================================================\n");
}

inline void
section(const std::string &title)
{
    std::printf("\n--- %s ---\n", title.c_str());
}

/** "who wins / by how much" row: paper band vs measured value. */
inline void
row(const std::string &label, const std::string &paper,
    const std::string &measured)
{
    std::printf("  %-46s paper: %-18s measured: %s\n", label.c_str(),
                paper.c_str(), measured.c_str());
}

inline std::string
fmt(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

} // namespace mtia::bench

#endif // MTIA_BENCH_BENCH_UTIL_H_

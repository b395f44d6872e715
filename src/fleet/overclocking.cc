#include "fleet/overclocking.h"

#include "core/parallel.h"

namespace mtia {

double
OverclockReport::passRateAt(double frequency_ghz) const
{
    std::uint64_t passed = 0;
    std::uint64_t total = 0;
    for (const auto &cell : cells) {
        if (cell.frequency_ghz == frequency_ghz) {
            passed += cell.passed;
            total += cell.passed + cell.failed;
        }
    }
    return total == 0 ? 0.0
                      : static_cast<double>(passed) /
            static_cast<double>(total);
}

OverclockReport
OverclockingStudy::run(unsigned chips,
                       const std::vector<double> &frequencies)
{
    // Margin each test consumes, as a fraction of Fmax: stress and
    // soak tests push closest to the silicon limit.
    const std::array<double, 10> margins = {
        0.97, 0.99, 0.98, 0.97, 0.99, 0.995, 0.96, 0.95, 0.95, 0.94};

    OverclockReport rep;
    rep.chips = chips;

    // Draw every chip's Fmax from its own substream; reuse across the
    // test matrix so the same weak chips fail consistently. Each
    // (frequency, test) cell then gets its own noise substream, making
    // every cell a pure function of its grid index — the report is
    // byte-identical at any MTIA_THREADS.
    const Rng fmax_base(rng_.next());
    const Rng cell_base(rng_.next());
    const std::vector<double> fmax = parallelMap(
        chips, [&](std::size_t c) {
            return fmax_base.fork(c).gaussian(fmax_mean_, fmax_sigma_);
        });

    const std::size_t tests = kOverclockTests.size();
    rep.cells = parallelMap(
        frequencies.size() * tests, [&](std::size_t i) {
            const double freq = frequencies[i / tests];
            const std::size_t t = i % tests;
            Rng rng = cell_base.fork(i);
            TestCell cell;
            cell.test = kOverclockTests[t];
            cell.frequency_ghz = freq;
            for (unsigned c = 0; c < chips; ++c) {
                // Per-run noise: voltage/thermal variation during the
                // test itself.
                const double effective = fmax[c] * margins[t] *
                    (1.0 + rng.gaussian(0.0, 0.004));
                if (effective >= freq) {
                    ++cell.passed;
                } else {
                    ++cell.failed;
                }
            }
            return cell;
        });
    return rep;
}

} // namespace mtia

#include "pe/command_processor.h"

#include "core/check.h"
#include "telemetry/metrics.h"

namespace mtia {

std::uint64_t
CommandProcessor::gemmInstructions(std::int64_t m, std::int64_t n,
                                   std::int64_t k) const
{
    const auto tiles_n = static_cast<std::uint64_t>((n + 31) / 32);
    const auto tiles_k = static_cast<std::uint64_t>((k + 31) / 32);
    // One matmul issue per (N, K) tile; M streams through the array.
    std::uint64_t per_tile = 1;
    if (!features_.multi_context)
        per_tile += 3; // re-write weight/activation/output contexts
    if (!features_.auto_increment)
        per_tile += 1; // explicit offset-update instruction
    // M larger than the stream window needs re-issues.
    const auto m_chunks =
        static_cast<std::uint64_t>((m + 255) / 256);
    return tiles_n * tiles_k * per_tile * m_chunks;
}

std::uint64_t
CommandProcessor::tbeInstructions(std::uint64_t rows) const
{
    std::uint64_t per_row = 1; // the DMA_IN itself
    if (!features_.indexed_dma)
        per_row += 3; // scalar address computation sequence
    if (!features_.unaligned_dma)
        per_row += 1; // alignment fix-up
    const std::uint64_t accum =
        (rows + features_.accum_rows - 1) / features_.accum_rows;
    return rows * per_row + accum;
}

double
CommandProcessor::cyclesPerIssue() const
{
    // The MTIA 2i issue path retires roughly one custom instruction
    // per two scalar cycles. Without multi-context support, every
    // issue additionally stalls on uncached custom-register writes,
    // roughly doubling the per-instruction cost on top of the extra
    // instructions counted above.
    return features_.multi_context ? 2.0 : 4.0;
}

Tick
CommandProcessor::issueTime(std::uint64_t instructions, double ghz) const
{
    const double cycles =
        static_cast<double>(instructions) * cyclesPerIssue();
    const Tick t = fromSeconds(cycles / (ghz * 1e9));
    issued_ += instructions;
    issue_ticks_ += t;
    return t;
}

void
CommandProcessor::exportMetrics(telemetry::MetricRegistry &registry,
                                const std::string &device) const
{
    const telemetry::Labels labels{{"device", device}};
    registry.gauge("cp.instructions_issued", labels)
        .set(static_cast<double>(issued_));
    registry.gauge("cp.issue_ms", labels).set(toMillis(issue_ticks_));
}

} // namespace mtia

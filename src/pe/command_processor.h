#ifndef MTIA_PE_COMMAND_PROCESSOR_H_
#define MTIA_PE_COMMAND_PROCESSOR_H_

/**
 * @file
 * Command Processor: orchestrates the fixed-function units. Models
 * the custom-instruction issue path whose bottleneck motivated the
 * Section 3.3 ISA additions (multi-context GEMM instructions,
 * auto-increment offsets, indexed DMA_IN, and 128-row SIMD
 * accumulation).
 */

#include <cstdint>
#include <string>

#include "sim/types.h"

namespace mtia::telemetry {
class MetricRegistry;
} // namespace mtia::telemetry

namespace mtia {

/** ISA feature set of the custom-instruction path. MTIA 1 lacks all
 * of these; MTIA 2i adds them to unblock the issue bottleneck. */
struct IsaFeatures
{
    bool multi_context = true;   ///< avoid re-writing custom registers
    bool auto_increment = true;  ///< address bump folded into the issue
    bool indexed_dma = true;     ///< DMA_IN computes address from index
    bool unaligned_dma = true;   ///< no software alignment fix-up
    unsigned accum_rows = 128;   ///< rows per SIMD accumulation instr

    /** The MTIA 1-era baseline. */
    static IsaFeatures
    mtia1()
    {
        return {false, false, false, false, 32};
    }
};

/**
 * Issue-path model: counts the custom instructions (plus per-
 * instruction scalar-core overhead cycles) a kernel needs, which
 * bounds throughput for small shapes and sparse operators.
 */
class CommandProcessor
{
  public:
    explicit CommandProcessor(IsaFeatures features = {})
        : features_(features) {}

    const IsaFeatures &features() const { return features_; }

    /**
     * Custom instructions to run an M x N x K GEMM on one PE given
     * 32-wide tiling. Without multi-context every tile re-writes the
     * context registers; without auto-increment every K-step issues
     * an extra offset update.
     */
    std::uint64_t gemmInstructions(std::int64_t m, std::int64_t n,
                                   std::int64_t k) const;

    /**
     * Custom instructions for a TBE kernel fetching @p rows embedding
     * rows and pooling them: a DMA_IN per row (plus address-compute
     * overhead without indexed DMA, plus fix-up without unaligned
     * support) and one accumulation instruction per accum_rows rows.
     */
    std::uint64_t tbeInstructions(std::uint64_t rows) const;

    /** Scalar-core cycles to issue one custom instruction. */
    double cyclesPerIssue() const;

    /** Time to issue @p instructions at clock @p ghz. */
    Tick issueTime(std::uint64_t instructions, double ghz) const;

    /** Custom instructions issued through issueTime() so far. */
    std::uint64_t instructionsIssued() const { return issued_; }

    /** Issue-path time accumulated by issueTime() so far. */
    Tick issueTicks() const { return issue_ticks_; }

    /**
     * Snapshot the cumulative issue totals into @p registry as cp.*
     * gauges labeled {device=@p device} (gauges overwrite, so repeated
     * exports never double-count).
     */
    void exportMetrics(telemetry::MetricRegistry &registry,
                       const std::string &device) const;

  private:
    IsaFeatures features_;
    // Issue-time queries are logically const; the issue totals they
    // feed are observability state.
    mutable std::uint64_t issued_ = 0;
    mutable Tick issue_ticks_ = 0;
};

} // namespace mtia

#endif // MTIA_PE_COMMAND_PROCESSOR_H_

#ifndef MTIA_FLEET_MEMORY_ERROR_STUDY_H_
#define MTIA_FLEET_MEMORY_ERROR_STUDY_H_

/**
 * @file
 * The Section 5.1 memory-error investigation: (1) fleet telemetry —
 * what fraction of servers develop ECC errors over an observation
 * window; (2) injection campaigns — which model memory regions turn
 * bit flips into NaNs, corrupted rankings, or crash-equivalent index
 * faults; (3) the ECC decision — throughput with controller ECC vs
 * the operational cost of running without it.
 */

#include <cstdint>
#include <map>
#include <vector>

#include "mem/error_injector.h"
#include "mem/lpddr.h"
#include "sim/random.h"

namespace mtia {

/** Fleet-telemetry outcome. */
struct FleetErrorReport
{
    unsigned servers = 0;
    unsigned cards_per_server = 24;
    unsigned servers_with_errors = 0;
    unsigned cards_with_errors = 0;
    /** Of affected servers, how many had exactly one bad card. */
    unsigned single_card_servers = 0;

    double
    serverErrorFraction() const
    {
        return servers == 0
            ? 0.0
            : static_cast<double>(servers_with_errors) / servers;
    }
};

/** Fleet memory-error study. */
class MemoryErrorStudy
{
  public:
    explicit MemoryErrorStudy(std::uint64_t seed) : rng_(seed) {}

    /**
     * Sample ECC-error telemetry for @p servers over
     * @p observation_days, with @p resident_bytes of model data per
     * card and the channel's raw bit-error rate. Card quality varies
     * lognormally (a small fraction of weak parts dominates, which is
     * why affected servers typically show a single bad card).
     */
    FleetErrorReport sampleFleet(const LpddrChannel &channel,
                                 unsigned servers,
                                 double observation_days,
                                 Bytes resident_bytes);

    /**
     * Injection campaign: @p trials single-bit flips into a tensor
     * standing for @p region, classified by consequence.
     */
    InjectionReport injectRegion(MemRegion region, int trials);

    /**
     * Same campaign with an explicit seed instead of the member
     * stream; const, so a caller with its own seed stream (the
     * cluster chaos samplers) leaves the member stream untouched.
     */
    InjectionReport injectRegionSeeded(MemRegion region, int trials,
                                       std::uint64_t seed) const;

    /** Run the campaign over every region. */
    std::vector<InjectionReport> injectAllRegions(int trials);

  private:
    Rng rng_;
};

} // namespace mtia

#endif // MTIA_FLEET_MEMORY_ERROR_STUDY_H_

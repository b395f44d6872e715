#ifndef MTIA_MEM_SRAM_H_
#define MTIA_MEM_SRAM_H_

/**
 * @file
 * The shared on-chip SRAM and its partitioning into hardware-managed
 * cache (LLC) and software-managed scratch (LLS). Partitioning happens
 * at 32 MB region granularity; the autotuner's data-placement pass
 * picks the split (Section 4.1: size the LLS to the activation buffer,
 * give the rest to the LLC). Only the split is modelled: what the LLS
 * holds is the size the placement pass gave it.
 */

#include <string>

#include "sim/types.h"

namespace mtia {

/** Static shape of the shared SRAM. */
struct SramConfig
{
    Bytes capacity = 256_MiB;
    Bytes region_granularity = 32_MiB;
    BytesPerSec bandwidth = gbPerSec(2700.0);
};

/**
 * A partition of the SRAM into LLS and LLC regions.
 */
class SramPartition
{
  public:
    SramPartition(const SramConfig &cfg, unsigned lls_regions);

    /** Build the smallest partition whose LLS holds @p bytes; fails
     * (returns false) if even all regions are not enough. */
    static bool fitLls(const SramConfig &cfg, Bytes bytes,
                       SramPartition &out);

    Bytes llsBytes() const;
    Bytes llcBytes() const;
    unsigned llsRegions() const { return lls_regions_; }
    unsigned totalRegions() const;

    const SramConfig &config() const { return cfg_; }

    std::string toString() const;

  private:
    SramConfig cfg_;
    unsigned lls_regions_;
};

} // namespace mtia

#endif // MTIA_MEM_SRAM_H_

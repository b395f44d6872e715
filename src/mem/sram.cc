#include "mem/sram.h"

#include <sstream>

#include "core/check.h"

namespace mtia {

SramPartition::SramPartition(const SramConfig &cfg, unsigned lls_regions)
    : cfg_(cfg), lls_regions_(lls_regions)
{
    MTIA_CHECK_LE(lls_regions_, totalRegions())
        << ": SramPartition: more LLS regions than the SRAM holds";
}

bool
SramPartition::fitLls(const SramConfig &cfg, Bytes bytes,
                      SramPartition &out)
{
    const Bytes gran = cfg.region_granularity;
    const unsigned total =
        static_cast<unsigned>(cfg.capacity / gran);
    const unsigned needed =
        static_cast<unsigned>((bytes + gran - 1) / gran);
    if (needed > total)
        return false;
    out = SramPartition(cfg, needed);
    return true;
}

Bytes
SramPartition::llsBytes() const
{
    return static_cast<Bytes>(lls_regions_) * cfg_.region_granularity;
}

Bytes
SramPartition::llcBytes() const
{
    return cfg_.capacity - llsBytes();
}

unsigned
SramPartition::totalRegions() const
{
    return static_cast<unsigned>(cfg_.capacity / cfg_.region_granularity);
}

std::string
SramPartition::toString() const
{
    std::ostringstream os;
    os << "LLS " << (llsBytes() >> 20) << "MB / LLC "
       << (llcBytes() >> 20) << "MB";
    return os.str();
}

} // namespace mtia

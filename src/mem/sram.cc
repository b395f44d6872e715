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

LlsAllocator::LlsAllocator(Bytes capacity, Bytes alignment)
    : capacity_(capacity), alignment_(alignment)
{
    MTIA_CHECK_GT(alignment_, 0u)
        << ": LlsAllocator: alignment must be positive";
}

std::int64_t
LlsAllocator::allocate(Bytes bytes)
{
    const Bytes aligned =
        (bytes + alignment_ - 1) / alignment_ * alignment_;
    if (used_ + aligned > capacity_)
        return -1;
    const Bytes off = used_;
    used_ += aligned;
    if (used_ > peak_)
        peak_ = used_;
    return static_cast<std::int64_t>(off);
}

void
LlsAllocator::release(Bytes mark)
{
    MTIA_CHECK_LE(mark, used_)
        << ": LlsAllocator::release mark above the allocation watermark";
    used_ = mark;
}

bool
LlsAllocator::fits(Bytes bytes) const
{
    const Bytes aligned =
        (bytes + alignment_ - 1) / alignment_ * alignment_;
    return used_ + aligned <= capacity_;
}

} // namespace mtia

#include "fleet/memory_error_study.h"

#include <cmath>

#include "core/parallel.h"

namespace mtia {

FleetErrorReport
MemoryErrorStudy::sampleFleet(const LpddrChannel &channel,
                              unsigned servers, double observation_days,
                              Bytes resident_bytes)
{
    FleetErrorReport rep;
    rep.servers = servers;
    const double seconds = observation_days * 86400.0;

    // One substream per server (Rng::fork discipline): server s draws
    // from base.fork(s) whatever the thread count, so the fleet sample
    // is byte-identical at MTIA_THREADS=1 and =N. The member stream
    // advances once per call so repeated samples stay independent.
    const Rng base(rng_.next());
    const unsigned cards = rep.cards_per_server;
    const std::vector<unsigned> bad_per_server = parallelMap(
        servers, [&](std::size_t s) {
            Rng rng = base.fork(s);
            unsigned bad_cards = 0;
            for (unsigned c = 0; c < cards; ++c) {
                // Per-card quality factor: most parts are much better
                // than the rated BER, a thin tail is much worse. The
                // lognormal keeps the fleet mean near 1 while giving
                // the observed typically-one-bad-card-per-server
                // pattern.
                const double quality = rng.lognormal(-1.5, 1.8);
                const double expected =
                    channel.expectedBitErrors(resident_bytes, seconds) *
                    quality;
                if (rng.poisson(expected) > 0)
                    ++bad_cards;
            }
            return bad_cards;
        });

    for (unsigned bad_cards : bad_per_server) {
        if (bad_cards > 0) {
            ++rep.servers_with_errors;
            rep.cards_with_errors += bad_cards;
            if (bad_cards == 1)
                ++rep.single_card_servers;
        }
    }
    return rep;
}

InjectionReport
MemoryErrorStudy::injectRegion(MemRegion region, int trials)
{
    return injectRegionSeeded(region, trials, rng_.next());
}

InjectionReport
MemoryErrorStudy::injectRegionSeeded(MemRegion region, int trials,
                                     std::uint64_t seed) const
{
    InjectionReport rep;
    rep.region = region;
    MemoryErrorInjector inj(seed);

    // A representative tensor for the region (dtype drives how bit
    // flips express themselves).
    const bool is_index = region == MemRegion::TbeIndices;
    Tensor proto;
    switch (region) {
      case MemRegion::DenseWeights:
        proto = Tensor(Shape{64, 64}, DType::FP16);
        break;
      case MemRegion::Activations:
      case MemRegion::Inputs:
      case MemRegion::Outputs:
        proto = Tensor(Shape{64, 64}, DType::FP32);
        break;
      case MemRegion::EmbeddingTable:
        proto = Tensor(Shape{256, 64}, DType::FP16);
        break;
      case MemRegion::TbeIndices:
        break;
    }
    if (!is_index)
        proto.fillGaussian(inj.rng(), 0.0f, 0.5f);

    for (int t = 0; t < trials; ++t) {
        ErrorOutcome outcome;
        if (is_index) {
            std::int64_t idx = static_cast<std::int64_t>(
                inj.rng().below(1u << 22));
            outcome = inj.injectIndexError(idx, 1 << 22);
        } else {
            Tensor copy = proto;
            outcome = inj.injectAndClassify(copy);
        }
        ++rep.trials;
        switch (outcome) {
          case ErrorOutcome::Benign: ++rep.benign; break;
          case ErrorOutcome::Corrupted: ++rep.corrupted; break;
          case ErrorOutcome::NaN: ++rep.nan; break;
          case ErrorOutcome::OutOfBounds: ++rep.out_of_bounds; break;
        }
    }
    return rep;
}

std::vector<InjectionReport>
MemoryErrorStudy::injectAllRegions(int trials)
{
    const std::vector<MemRegion> regions = {
        MemRegion::DenseWeights, MemRegion::Activations,
        MemRegion::EmbeddingTable, MemRegion::TbeIndices,
        MemRegion::Inputs, MemRegion::Outputs};
    // Draw each region's campaign seed serially in region order (the
    // same stream consumption as the serial path), then run the
    // campaigns concurrently — one region per task, results in region
    // order.
    std::vector<std::uint64_t> seeds(regions.size());
    for (std::size_t i = 0; i < regions.size(); ++i)
        seeds[i] = rng_.next();
    return parallelMap(regions.size(), [&](std::size_t i) {
        return injectRegionSeeded(regions[i], trials, seeds[i]);
    });
}

} // namespace mtia

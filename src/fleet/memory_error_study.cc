#include "fleet/memory_error_study.h"

#include <cmath>

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
    // from base.fork(s), so a server's sample does not depend on how
    // many draws the servers before it made. The member stream
    // advances once per call so repeated samples stay independent.
    const Rng base(rng_.next());
    for (unsigned s = 0; s < servers; ++s) {
        Rng rng = base.fork(s);
        unsigned bad_cards = 0;
        for (unsigned c = 0; c < rep.cards_per_server; ++c) {
            // Per-card quality factor: most parts are much better than
            // the rated BER, a thin tail is much worse. The lognormal
            // keeps the fleet mean near 1 while giving the observed
            // typically-one-bad-card-per-server pattern.
            const double quality = rng.lognormal(-1.5, 1.8);
            const double expected =
                channel.expectedBitErrors(resident_bytes, seconds) *
                quality;
            if (rng.poisson(expected) > 0)
                ++bad_cards;
        }
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
    // Each campaign draws one seed from the member stream and then
    // runs on its own injector stream, so region i always gets the
    // member stream's i-th draw.
    std::vector<InjectionReport> out;
    for (MemRegion region :
         {MemRegion::DenseWeights, MemRegion::Activations,
          MemRegion::EmbeddingTable, MemRegion::TbeIndices,
          MemRegion::Inputs, MemRegion::Outputs})
        out.push_back(injectRegion(region, trials));
    return out;
}

} // namespace mtia

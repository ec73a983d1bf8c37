#include "row/predictor.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"
#include "common/trace.hh"
#include "sim/snapshot.hh"

namespace rowsim
{

ContentionPredictor::ContentionPredictor(const RowConfig &c)
    : cfg(c), maxCounter((1u << c.counterBits) - 1),
      table(c.predictorEntries, 0), stats_("rowPredictor")
{
    ROWSIM_ASSERT(std::has_single_bit(c.predictorEntries),
                  "predictor entries must be a power of two");
    // Thresholds from §IV-D: UpDown (and the +2/-1 variant) execute lazy
    // when counter > 1; Saturate-on-Contention when counter > 0.
    threshold =
        c.update == PredictorUpdate::SaturateOnContention ? 0 : 1;
}

unsigned
ContentionPredictor::index(Addr pc) const
{
    const unsigned bits = std::countr_zero(cfg.predictorEntries);
    const unsigned mask = cfg.predictorEntries - 1;
    const auto word = static_cast<unsigned>(pc);
    return (word ^ (word >> bits)) & mask;
}

bool
ContentionPredictor::predictContended(Addr pc) const
{
    return table[index(pc)] > threshold;
}

void
ContentionPredictor::update(Addr pc, bool contended, Cycle now)
{
    const bool predicted = predictContended(pc);
    updates_++;
    if (predicted == contended)
        correct_++;
    if (contended)
        contendedOutcomes_++;

    std::uint8_t &ctr = table[index(pc)];
    ROWSIM_TRACE(TraceCategory::Predictor, now,
                 "core%u predictor pc=%#llx idx=%u ctr=%u predicted=%d "
                 "actual=%d", coreId_,
                 static_cast<unsigned long long>(pc), index(pc),
                 static_cast<unsigned>(ctr), predicted ? 1 : 0,
                 contended ? 1 : 0);
    if (predicted != contended) {
        ROWSIM_TRACE_INSTANT(
            TraceCategory::Predictor, static_cast<int>(coreId_),
            traceTidPredictor, "mispredict", now,
            strprintf("{\"pc\":\"%#llx\",\"predicted\":%d,\"actual\":%d}",
                      static_cast<unsigned long long>(pc),
                      predicted ? 1 : 0, contended ? 1 : 0));
    }
    if (contended) {
        switch (cfg.update) {
          case PredictorUpdate::SaturateOnContention:
            ctr = static_cast<std::uint8_t>(maxCounter);
            break;
          case PredictorUpdate::TwoUpOneDown:
            ctr = static_cast<std::uint8_t>(
                std::min<unsigned>(maxCounter, ctr + 2u));
            break;
          case PredictorUpdate::UpDown:
            if (ctr < maxCounter)
                ctr++;
            break;
        }
    } else if (ctr > 0) {
        ctr--;
    }
}

unsigned
ContentionPredictor::storageBits() const
{
    return cfg.predictorEntries * cfg.counterBits;
}

template <class Ar>
void
ContentionPredictor::visit(Ar &ar)
{
    ar.section("rowpred");
    ar.expect(std::uint64_t{table.size()}, "RoW predictor entries");
    ar.array(table.data(), table.size(), "RoW predictor table");
}

template void ContentionPredictor::visit(Ser &);
template void ContentionPredictor::visit(Deser &);

} // namespace rowsim

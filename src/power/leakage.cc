#include "power/leakage.hh"

#include "util/logging.hh"

namespace densim {

LeakageModel::LeakageModel(Watts tdp, double frac_at_ref, Celsius ref,
                           double slope_per_c)
    : tdpW_(tdp.value()), refLeakW_(tdp.value() * frac_at_ref),
      refC_(ref.value()), slopePerC_(slope_per_c)
{
    if (tdpW_ <= 0.0)
        fatal("LeakageModel: TDP must be positive, got ", tdpW_);
    if (frac_at_ref < 0.0 || frac_at_ref >= 1.0)
        fatal("LeakageModel: leakage fraction ", frac_at_ref,
              " outside [0, 1)");
    if (slope_per_c < 0.0)
        fatal("LeakageModel: negative temperature slope ", slope_per_c);
}

const LeakageModel &
LeakageModel::x2150()
{
    static const LeakageModel model(Watts(22.0));
    return model;
}

} // namespace densim

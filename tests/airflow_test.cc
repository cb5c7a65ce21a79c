/**
 * @file
 * Unit tests for the airflow substrate: first-law relations (checked
 * against Table II of the paper) and fan affinity laws.
 */

#include <gtest/gtest.h>

#include "airflow/fan.hh"
#include "airflow/first_law.hh"

namespace densim {
namespace {

TEST(FirstLaw, ConstantNear176)
{
    EXPECT_NEAR(kCelsiusPerWattPerCfm, 1.76, 0.01);
}

/** Table II rows: (server class power per U, required CFM at 20 C). */
struct TableIIRow
{
    double powerPerU;
    double cfm;
};

class TableII : public ::testing::TestWithParam<TableIIRow>
{
};

TEST_P(TableII, RequiredAirflowMatchesPaper)
{
    const TableIIRow row = GetParam();
    EXPECT_NEAR(requiredAirflow(Watts(row.powerPerU),
                                CelsiusDelta(20.0))
                    .value(),
                row.cfm, 0.06);
}

INSTANTIATE_TEST_SUITE_P(PaperRows, TableII,
                         ::testing::Values(TableIIRow{208.0, 18.30},
                                           TableIIRow{147.0, 12.94},
                                           TableIIRow{114.0, 10.03},
                                           TableIIRow{421.0, 37.05},
                                           TableIIRow{588.0, 51.74}));

TEST(FirstLaw, RiseAndRequiredAreInverses)
{
    const Watts watts(123.0);
    const Cfm cfm = requiredAirflow(watts, CelsiusDelta(20.0));
    EXPECT_NEAR(airTemperatureRise(watts, cfm).value(), 20.0, 1e-9);
}

TEST(FirstLaw, AbsorbableHeatInverts)
{
    const Watts q = absorbableHeat(Cfm(10.0), CelsiusDelta(15.0));
    EXPECT_NEAR(airTemperatureRise(q, Cfm(10.0)).value(), 15.0, 1e-9);
}

TEST(FirstLaw, RiseScalesLinearlyWithPower)
{
    const CelsiusDelta r1 = airTemperatureRise(Watts(10.0), Cfm(6.35));
    const CelsiusDelta r2 = airTemperatureRise(Watts(20.0), Cfm(6.35));
    EXPECT_NEAR(r2.value(), 2.0 * r1.value(), 1e-12);
}

TEST(FirstLaw, RiseInverseInFlow)
{
    const CelsiusDelta r1 = airTemperatureRise(Watts(15.0), Cfm(5.0));
    const CelsiusDelta r2 =
        airTemperatureRise(Watts(15.0), Cfm(10.0));
    EXPECT_NEAR(r1.value(), 2.0 * r2.value(), 1e-12);
}

TEST(FirstLaw, ZeroPowerZeroRise)
{
    EXPECT_DOUBLE_EQ(
        airTemperatureRise(Watts(0.0), Cfm(6.35)).value(), 0.0);
}

TEST(FirstLaw, RejectsNonPositiveFlow)
{
    EXPECT_EXIT(airTemperatureRise(Watts(10.0), Cfm(0.0)),
                ::testing::ExitedWithCode(1), "positive");
}

TEST(FirstLaw, RejectsNegativePower)
{
    EXPECT_EXIT(requiredAirflow(Watts(-1.0), CelsiusDelta(20.0)),
                ::testing::ExitedWithCode(1), "negative");
}

TEST(Fan, ActiveCoolBankMeetsServerBudget)
{
    // Five ActiveCool-class fans must deliver the 400 CFM Table III
    // server total.
    Fan bank(Fan::activeCoolSpec(), 5);
    EXPECT_GE(bank.maxDeliveredCfm().value(), 400.0);
}

TEST(Fan, AirflowLinearInSpeed)
{
    Fan fan(Fan::activeCoolSpec());
    EXPECT_NEAR(fan.deliveredCfm(0.5).value(),
                0.5 * fan.deliveredCfm(1.0).value(), 1e-12);
}

TEST(Fan, PowerCubicInSpeed)
{
    Fan fan(Fan::activeCoolSpec());
    EXPECT_NEAR(fan.electricalPower(0.5).value(),
                0.125 * fan.electricalPower(1.0).value(), 1e-12);
}

TEST(Fan, SpeedForCfmRoundTrips)
{
    Fan fan(Fan::activeCoolSpec());
    const Cfm target(0.6 * fan.maxDeliveredCfm().value());
    const double s = fan.speedForCfm(target);
    EXPECT_NEAR(fan.deliveredCfm(s).value(), target.value(), 1e-9);
}

TEST(Fan, SpeedClampsAtMinimum)
{
    Fan fan(Fan::activeCoolSpec());
    EXPECT_DOUBLE_EQ(fan.speedForCfm(Cfm(0.0)),
                     Fan::activeCoolSpec().minSpeedFrac);
}

TEST(Fan, OverCapacityIsFatal)
{
    Fan fan(Fan::activeCoolSpec());
    EXPECT_EXIT(
        fan.speedForCfm(Cfm(10 * fan.maxDeliveredCfm().value())),
                ::testing::ExitedWithCode(1), "cannot deliver");
}

TEST(Fan, PowerForCfmMonotone)
{
    Fan fan(Fan::activeCoolSpec(), 5);
    double last = 0.0;
    for (double cfm = 50.0; cfm <= 400.0; cfm += 50.0) {
        const double p = fan.powerForCfm(Cfm(cfm)).value();
        EXPECT_GE(p, last);
        last = p;
    }
}

TEST(FlowBudget, SutBudgetSupportsTableIIDensityOptRow)
{
    // The density-optimized class draws 588 W/U; a 4U SUT draws
    // ~2.3 kW. 400 CFM removes that within the 20 C ASHRAE rise
    // budget (first-law check linking Table II and Table III).
    const double heat =
        absorbableHeat(Cfm(400.0), CelsiusDelta(20.0)).value();
    EXPECT_GT(heat, 4 * 588.0 * 0.9);
}

} // namespace
} // namespace densim

/**
 * @file
 * Dense-server design-space exploration: how does the *organization*
 * of sockets change intra-server thermals before any scheduling is
 * applied?
 *
 * The example walks the Table I catalog, rebuilds each system's
 * serial airflow chain with the analytical entry-temperature model,
 * and then uses the full coupling map + Eq. (1) to answer the
 * designer's question for a custom build: at which degree of coupling
 * does the last socket in the chain stop sustaining its highest
 * non-boost frequency?
 *
 * Build & run:
 *     cmake -B build -G Ninja && cmake --build build
 *     ./build/examples/design_space
 */

#include <iostream>

#include "power/leakage.hh"
#include "power/power_manager.hh"
#include "server/catalog.hh"
#include "server/topology.hh"
#include "thermal/entry_model.hh"
#include "thermal/simple_peak_model.hh"
#include "util/table.hh"
#include "workload/curves.hh"

using namespace densim;

int
main()
{
    std::cout << "Part 1: Table I systems through the analytical "
                 "entry model (all sockets at TDP, 6.35 CFM each)\n\n";

    TableWriter catalog({"System", "TDP (W)", "Coupling", "Mean entry "
                         "rise (C)", "Last-socket rise (C)"});
    for (const SystemRecord &r : densityOptimizedSystems()) {
        const auto chain = serialChainEntryTemps(
            r.degreeOfCoupling, Watts(r.socketTdpW), Cfm(6.35),
            Celsius(18.0));
        catalog.newRow()
            .cell(r.details)
            .cell(r.socketTdpW, 1)
            .cell(static_cast<long long>(r.degreeOfCoupling))
            .cell(chain.meanRise.value(), 1)
            .cell(chain.entryTemps.back().value() - 18.0, 1);
    }
    catalog.print(std::cout);

    std::cout << "\nPart 2: custom M700-style builds — zones in "
                 "series vs sustained frequency of the last zone "
                 "(Computation at TDP on every socket)\n\n";

    const SimplePeakModel peak;
    const PowerManager pm(PStateTable::x2150(), peak, Celsius(95.0),
                          0.10);
    const LeakageModel &leak = LeakageModel::x2150();
    const auto &curve = freqCurveFor(WorkloadSet::Computation);

    TableWriter build({"Zones/row", "Coupling deg", "Last entry (C)",
                       "Last ambient (C)", "Sustained freq (MHz)"});
    for (int zones = 1; zones <= 10; ++zones) {
        TopologySpec spec;
        spec.rows = 1;
        spec.cartridgesPerRow = zones;
        spec.zonesPerCartridge = 1;
        spec.socketsPerZone = 2;
        const ServerTopology topo(spec);
        const CouplingMap map(topo.sites(), CouplingParams{});

        // Everyone runs Computation at the sustained state's power.
        const std::size_t sustained =
            PStateTable::x2150().highestSustainedIndex();
        std::vector<double> powers(topo.numSockets(),
                                   curve.totalPowerAt90C[sustained]);
        const std::size_t last = topo.numSockets() - 1;
        const double entry = map.entryTemps(powers, Celsius(18.0))[last];
        const double ambient =
            map.ambientTemps(powers, Celsius(18.0))[last];
        const DvfsDecision d = pm.chooseAtAmbientCapped(
            curve, leak, Celsius(ambient), topo.sinkOf(last),
            sustained);
        build.newRow()
            .cell(static_cast<long long>(zones))
            .cell(static_cast<long long>(topo.degreeOfCoupling()))
            .cell(entry, 1)
            .cell(ambient, 1)
            .cell(d.freqMhz, 0);
    }
    build.print(std::cout);

    std::cout << "\nThe knee in the last column is the densest build "
                 "whose tail socket still sustains 1500 MHz — the "
                 "designer's coupling budget.\n";
    return 0;
}

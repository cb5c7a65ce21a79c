/**
 * @file
 * Naive references for CouplingMap's run layout, shared by the
 * coupling tests. referenceRows() builds the per-entry rows the runs
 * replace, by the map's physics in the map's order, one entry per
 * (source, downstream socket) pair; every reader of the runs is then
 * compared with a per-entry loop over those rows, bit for bit
 * (EXPECT_EQ on doubles):
 *
 *  - coeff() and airCoeff() with the rows as a coefficient matrix,
 *    and downstreamImpact() with each row's ascending sum;
 *  - ambientTempsInto(), ambientTemps() and entryTemps() with sources
 *    ascending, each adding its entries one at a time;
 *  - applyPowerDeltas() with one pass per listed socket, in list
 *    order, over ascending lists with twins, zero deltas inside twin
 *    pairs and an event-order tail;
 *  - downstreamPenaltyMhz() with one product and one charge per
 *    entry, ascending, through the snapshot, the table and the full
 *    search.
 */

#ifndef DENSIM_TESTS_COUPLING_REFERENCE_HH
#define DENSIM_TESTS_COUPLING_REFERENCE_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "airflow/first_law.hh"
#include "power/leakage.hh"
#include "power/power_manager.hh"
#include "power/pstate.hh"
#include "sched/prediction.hh"
#include "server/topology.hh"
#include "thermal/coupling_map.hh"
#include "util/rng.hh"
#include "workload/curves.hh"

namespace densim::coupling_reference {

/** One coupling entry: a downstream socket and its coefficients. */
struct Entry
{
    std::size_t to;
    double air;
    double amb;
};

/** Per source socket, its entries in ascending socket order. */
using Rows = std::vector<std::vector<Entry>>;

/** The per-entry rows of CouplingMap(@p sites, @p params). */
inline Rows
referenceRows(const std::vector<SocketSite> &sites,
              const CouplingParams &params)
{
    const std::size_t n = sites.size();
    int min_row = sites[0].duct;
    int max_row = sites[0].duct;
    for (const SocketSite &site : sites) {
        min_row = std::min(min_row, site.duct);
        max_row = std::max(max_row, site.duct);
    }
    // Leak weights within reach, summed in ascending row order.
    const auto leak_weight = [&](int dist) {
        double w = 1.0;
        for (int k = 0; k < dist; ++k)
            w *= params.verticalLeak;
        return w;
    };
    Rows rows(n);
    for (std::size_t from = 0; from < n; ++from) {
        double norm = 0.0;
        for (int r = min_row; r <= max_row; ++r) {
            const double w = leak_weight(std::abs(r - sites[from].duct));
            if (w >= 0.05)
                norm += w;
        }
        for (std::size_t to = 0; to < n; ++to) {
            const double d =
                sites[to].streamPosInch - sites[from].streamPosInch;
            if (to == from || d <= 0.0)
                continue;
            double vertical =
                leak_weight(std::abs(sites[from].duct - sites[to].duct));
            if (vertical < 0.05)
                continue;
            vertical /= norm;
            const double decay = std::exp(
                -(std::max(d, params.minSpacingInch) -
                  params.minSpacingInch) /
                params.decayLengthInch);
            const double air = kCelsiusPerWattPerCfm *
                               (params.mixFactor * decay * vertical) /
                               sites[to].ductCfm.value();
            rows[from].push_back({to, air, air * params.wakeFactor});
        }
    }
    return rows;
}

/** Whether sockets @p s and @p s + 1 have equal run rows (twins). */
inline bool
twins(const CouplingMap &map, std::size_t s)
{
    const std::span<const CouplingRun> a = map.runs(s);
    const std::span<const CouplingRun> b = map.runs(s + 1);
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [&](const CouplingRun &x, const CouplingRun &y) {
                          return x.first == y.first &&
                                 x.lanes == y.lanes && x.amb == y.amb &&
                                 map.airCoeff(s, x.first).value() ==
                                     map.airCoeff(s + 1, y.first).value();
                      });
}

/** coeff and airCoeff are the rows' entries, and 0 off them; the
 *  downstream impact is the row's ascending sum. */
inline void
expectCoefficients(const CouplingMap &map, const Rows &rows)
{
    const std::size_t n = map.size();
    for (std::size_t from = 0; from < n; ++from) {
        std::vector<double> air(n, 0.0);
        std::vector<double> amb(n, 0.0);
        double impact = 0.0;
        for (const Entry &e : rows[from]) {
            air[e.to] = e.air;
            amb[e.to] = e.amb;
            impact += e.amb;
        }
        ASSERT_EQ(map.downstreamImpact(from).value(), impact)
            << "socket " << from;
        for (std::size_t to = 0; to < n; ++to) {
            ASSERT_EQ(map.coeff(from, to).value(), amb[to])
                << "socket " << from << " -> " << to;
            ASSERT_EQ(map.airCoeff(from, to).value(), air[to])
                << "socket " << from << " -> " << to;
        }
    }
}

/**
 * The per-entry field of @p powers: every source in ascending order,
 * a zero power skipped, adds its entries' @p ambient (else air)
 * coefficient times its power, then the kappa self term if ambient.
 */
inline std::vector<double>
referenceField(const Rows &rows, const std::vector<double> &powers,
               double inlet, bool ambient, double kappa)
{
    std::vector<double> out(rows.size(), inlet);
    for (std::size_t j = 0; j < rows.size(); ++j) {
        const double p = powers[j];
        if (p == 0.0)
            continue;
        for (const Entry &e : rows[j])
            out[e.to] += (ambient ? e.amb : e.air) * p;
    }
    if (ambient)
        for (std::size_t i = 0; i < rows.size(); ++i)
            out[i] += kappa * powers[i];
    return out;
}

/** Every field evaluator against referenceField, under seeded powers
 *  with some exact zeros. */
inline void
expectFields(const CouplingMap &map, const Rows &rows, Rng &rng)
{
    const std::size_t n = map.size();
    const double inlet = 18.0;
    const double kappa = map.kappaLocal().value();
    std::vector<double> powers(n);
    for (std::size_t s = 0; s < n; ++s)
        powers[s] = s % 7 == 3 ? 0.0 : rng.uniform(0.5, 25.0);
    const std::vector<double> amb =
        referenceField(rows, powers, inlet, true, kappa);
    EXPECT_EQ(map.entryTemps(powers, Celsius(inlet)),
              referenceField(rows, powers, inlet, false, kappa));
    EXPECT_EQ(map.ambientTemps(powers, Celsius(inlet)), amb);
    std::vector<double> into(n, -1.0);
    map.ambientTempsInto(into.data(), n, powers.data(), Celsius(inlet));
    EXPECT_EQ(into, amb);
}

/**
 * applyPowerDeltas' reference: each listed socket in list order, one
 * pass over its entries, skipped when its delta is 0.
 */
inline void
referenceFlush(const Rows &rows, double kappa, std::vector<double> &temps,
               const std::vector<std::size_t> &sockets,
               std::vector<double> &field_w,
               const std::vector<double> &power_w)
{
    for (const std::size_t s : sockets) {
        const double dp = power_w[s] - field_w[s];
        field_w[s] = power_w[s];
        if (dp == 0.0)
            continue;
        for (const Entry &e : rows[s])
            temps[e.to] += e.amb * dp;
        temps[s] += kappa * dp;
    }
}

/**
 * Flush epochs at six densities against referenceFlush. Each epoch
 * lists an ascending share of the sockets, about a fifth of them with
 * an unchanged power, then an event-order tail of unlisted sockets in
 * shuffled order.
 */
inline void
expectFlushes(const CouplingMap &map, const Rows &rows, Rng &rng)
{
    const std::size_t n = map.size();
    const double kappa = map.kappaLocal().value();
    std::vector<double> power(n);
    for (double &p : power)
        p = rng.uniform(2.2, 20.0);
    std::vector<double> field = power;
    std::vector<double> field_ref = power;
    std::vector<double> temps = map.ambientTemps(power, Celsius(18.0));
    std::vector<double> temps_ref = temps;
    int twin_pairs = 0;
    int half_zero_twins = 0;
    const double densities[] = {0.32, 0.79, 1.0, 0.5, 1.0, 0.1};
    for (std::size_t epoch = 0; epoch < std::size(densities); ++epoch) {
        std::vector<std::size_t> list;
        std::vector<std::size_t> rest;
        for (std::size_t s = 0; s < n; ++s) {
            if (rng.uniform(0.0, 1.0) < densities[epoch]) {
                list.push_back(s);
                if (rng.uniform(0.0, 1.0) >= 0.2)
                    power[s] = rng.uniform(2.2, 20.0);
            } else {
                rest.push_back(s);
            }
        }
        for (std::size_t k = 0; k + 1 < list.size(); ++k) {
            const std::size_t s = list[k];
            if (list[k + 1] != s + 1 || !twins(map, s))
                continue;
            // Every third listed twin pair moves one socket only: the
            // left one and the right one in turn.
            if (twin_pairs % 3 == 0) {
                const std::size_t keep = s + (twin_pairs / 3) % 2;
                const std::size_t move = 2 * s + 1 - keep;
                power[keep] = field[keep];
                if (power[move] == field[move])
                    power[move] = field[move] + 1.0;
            }
            ++twin_pairs;
            if ((power[s] == field[s]) != (power[s + 1] == field[s + 1]))
                ++half_zero_twins;
            ++k;
        }
        for (std::size_t k = rest.size(); k > 1; --k)
            std::swap(rest[k - 1], rest[rng.nextBounded(k)]);
        for (std::size_t k = 0; k < rest.size() && k < 6; ++k) {
            list.push_back(rest[k]);
            power[rest[k]] = rng.uniform(2.2, 20.0);
        }
        map.applyPowerDeltas(temps, list, field, power);
        referenceFlush(rows, kappa, temps_ref, list, field_ref, power);
        ASSERT_EQ(temps, temps_ref) << "epoch " << epoch;
        ASSERT_EQ(field, field_ref) << "epoch " << epoch;
        ASSERT_EQ(field, power) << "epoch " << epoch;
    }
    bool any_twin = false;
    for (std::size_t s = 0; s + 1 < n; ++s)
        any_twin = any_twin || twins(map, s);
    if (any_twin) {
        EXPECT_GT(twin_pairs, 0);
        EXPECT_GT(half_zero_twins, 0);
    }
}

/**
 * downstreamPenaltyMhz before the run layout: every entry of the
 * row, ascending, its own product and its own charge.
 */
inline double
referencePenalty(const SchedContext &ctx, const Rows &rows,
                 std::size_t socket, Watts job_power)
{
    const double extra = job_power.value() - ctx.powerW[socket];
    if (extra <= 0.0)
        return 0.0;
    const PredictionCache *cache = ctx.cache;
    const auto &table = ctx.pm->pstates();
    const std::size_t boost_cap = table.size() - 1;
    const std::size_t sustained_cap = table.highestSustainedIndex();
    const double fastest_mhz = table.fastest().freqMhz;
    const bool snapshot = cache != nullptr && cache->snapshot;
    double penalty = 0.0;
    for (const Entry &e : rows[socket]) {
        const std::size_t d = e.to;
        const double dt = e.amb * extra;
        const double amb_new = ctx.ambientC[d] + dt;
        if (snapshot) {
            if (amb_new <= cache->keepC[d]) {
                penalty += dt * cache->keepSlope[d];
                continue;
            }
            if (amb_new <= cache->dropC[d]) {
                penalty += cache->dropMhz[d];
                continue;
            }
        }
        if (ctx.busy[d] == 0)
            continue;
        const WorkloadSet set = ctx.runningSet[d];
        const std::size_t cap =
            ctx.boostCreditS[d] > 0.0 ? boost_cap : sustained_cap;
        const double decision_mhz =
            cache != nullptr
                ? cache->feas.freqMhz(PowerManager::highestFeasible(
                      cache->feas.row(d, set), Celsius(amb_new), cap))
                : ctx.pm
                      ->chooseAtAmbientCapped(freqCurveFor(set),
                                              *ctx.leak,
                                              Celsius(amb_new),
                                              ctx.topo->sinkOf(d), cap)
                      .freqMhz;
        const double discrete =
            std::max(0.0, ctx.freqMhz[d] - decision_mhz);
        if (discrete > 0.0) {
            penalty += discrete;
        } else if (decision_mhz < fastest_mhz - 1e-9) {
            penalty += dt * (cache != nullptr
                                 ? cache->feas.mhzPerC(d, set)
                                 : mhzPerCelsius(*ctx.pm, set,
                                                 ctx.topo->sinkOf(d)));
        }
    }
    return penalty;
}

/**
 * downstreamPenaltyMhz against referencePenalty for every socket of a
 * seeded half-busy state on @p topo with @p map's coupling: through
 * the penalty snapshot, through the feasibility table alone, and
 * through the full search.
 */
inline void
expectPenalties(const ServerTopology &topo, const CouplingMap &map,
                const Rows &rows, Rng &rng)
{
    const std::size_t n = map.size();
    const PStateTable &table = PStateTable::x2150();
    const PowerManager pm(table, SimplePeakModel(), Celsius(95.0), 0.10);
    const LeakageModel &leak = LeakageModel::x2150();
    const std::vector<WorkloadSet> &all_sets = allWorkloadSets();
    std::vector<double> chip(n, 40.0), amb(n), credit(n), power(n),
        freq(n, 0.0);
    std::vector<WorkloadSet> sets(n, WorkloadSet::Computation);
    std::vector<std::uint8_t> busy(n, 0);
    std::vector<std::size_t> pstates(n, 0);
    std::vector<std::size_t> idle;
    std::vector<const HeatSink *> sinks(n);
    for (std::size_t s = 0; s < n; ++s) {
        sinks[s] = &topo.sinkOf(s);
        amb[s] = rng.uniform(20.0, 60.0);
        credit[s] = rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : 2.0;
        power[s] = pm.gatedPower(leak).value();
        if (rng.uniform(0.0, 1.0) < 0.5) {
            idle.push_back(s);
            continue;
        }
        busy[s] = 1;
        sets[s] = all_sets[rng.nextBounded(all_sets.size())];
        const std::size_t cap = credit[s] > 0.0
                                    ? table.size() - 1
                                    : table.highestSustainedIndex();
        const DvfsDecision d = pm.chooseAtAmbientCapped(
            freqCurveFor(sets[s]), leak, Celsius(amb[s]), topo.sinkOf(s),
            cap);
        pstates[s] = d.pstate;
        freq[s] = d.freqMhz;
        power[s] = d.power.value();
    }
    PredictionCache cache;
    cache.feas.build(pm, leak, sinks);
    cache.reset(n);
    for (std::size_t s = 0; s < n; ++s)
        if (busy[s])
            cache.snapshotBusy(s, pstates[s], sets[s]);
    Rng policy_rng(1);
    SchedContext ctx;
    ctx.topo = &topo;
    ctx.coupling = &map;
    ctx.pm = &pm;
    ctx.leak = &leak;
    ctx.inletC = 18.0;
    ctx.idle = &idle;
    ctx.nSockets = n;
    ctx.chipTempC = chip.data();
    ctx.histTempC = chip.data();
    ctx.ambientC = amb.data();
    ctx.boostCreditS = credit.data();
    ctx.powerW = power.data();
    ctx.freqMhz = freq.data();
    ctx.runningSet = sets.data();
    ctx.busy = busy.data();
    ctx.rng = &policy_rng;
    for (const int mode : {0, 1, 2}) {
        cache.snapshot = mode == 0;
        ctx.cache = mode == 2 ? nullptr : &cache;
        for (std::size_t s = 0; s < n; ++s) {
            const Watts job(rng.uniform(4.0, 25.0));
            ASSERT_EQ(downstreamPenaltyMhz(ctx, s, job),
                      referencePenalty(ctx, rows, s, job))
                << "socket " << s << ", mode " << mode;
        }
    }
}

/** Every reference above, on @p map built for @p topo. */
inline void
expectRunsMatchReferences(const ServerTopology &topo,
                          const CouplingMap &map, std::uint64_t seed)
{
    const Rows rows = referenceRows(map.sites(), map.params());
    Rng rng(seed);
    expectCoefficients(map, rows);
    expectFields(map, rows, rng);
    expectFlushes(map, rows, rng);
    expectPenalties(topo, map, rows, rng);
}

} // namespace densim::coupling_reference

#endif // DENSIM_TESTS_COUPLING_REFERENCE_HH

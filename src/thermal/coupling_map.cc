#include "thermal/coupling_map.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

#include "airflow/first_law.hh"
#include "core/invariant.hh"
#include "util/logging.hh"

namespace densim {

namespace {

/** The two lanes of a paired run, one vector register (GCC extension). */
typedef double Lanes2 __attribute__((vector_size(2 * sizeof(double))));

/** Add @p v to every lane of @p run in @p out: one two-lane add for a
 *  pair, each lane rounding as its own scalar add would. */
inline void
addRun(double *out, const CouplingRun &run, double v)
{
    double *at = out + run.first;
    if (run.lanes == 2) {
        Lanes2 lanes;
        std::memcpy(&lanes, at, sizeof lanes);
        lanes += v;
        std::memcpy(at, &lanes, sizeof lanes);
    } else {
        *at += v;
    }
}

} // namespace

CouplingMap::CouplingMap(std::vector<SocketSite> map_sites,
                         CouplingParams map_params)
    : sites_(std::move(map_sites)), params_(map_params)
{
    if (sites_.empty())
        fatal("CouplingMap: no socket sites");
    if (params_.mixFactor < 1.0)
        fatal("CouplingMap: mixFactor must be >= 1 (got ",
              params_.mixFactor, "); heated air cannot un-heat");
    if (params_.wakeFactor <= 0.0)
        fatal("CouplingMap: wakeFactor must be positive, got ",
              params_.wakeFactor);
    if (params_.decayLengthInch <= 0.0)
        fatal("CouplingMap: decay length must be positive");
    if (params_.kappaLocal < 0.0)
        fatal("CouplingMap: kappaLocal must be non-negative");
    if (!(params_.verticalLeak >= 0.0 && params_.verticalLeak <= 1.0))
        fatal("CouplingMap: vertical leak ", params_.verticalLeak,
              " outside [0, 1]");
    for (const SocketSite &s : sites_) {
        if (!std::isfinite(s.streamPosInch))
            fatal("CouplingMap: stream position must be finite, got ",
                  s.streamPosInch);
        if (s.ductCfm.value() <= 0.0)
            fatal("CouplingMap: duct airflow must be positive, got ",
                  s.ductCfm.value());
    }

    const std::size_t n = sites_.size();
    if (n > std::numeric_limits<std::uint32_t>::max())
        fatal("CouplingMap: ", n, " sockets exceed 32-bit socket ids");
    impact_.assign(n, 0.0);
    runOff_.assign(n + 1, 0);

    int min_row = sites_[0].duct;
    int max_row = sites_[0].duct;
    for (const SocketSite &site : sites_) {
        min_row = std::min(min_row, site.duct);
        max_row = std::max(max_row, site.duct);
    }
    // leak[k] = verticalLeak^k, multiplied out left to right: every
    // coefficient's bits depend on that order.
    std::vector<double> leak(
        static_cast<std::size_t>(max_row - min_row) + 1, 1.0);
    for (std::size_t k = 1; k < leak.size(); ++k)
        leak[k] = leak[k - 1] * params_.verticalLeak;
    // Heat leaking into neighbour ducts comes out of the same-duct
    // share, so the per-source normalization is the sum of leak
    // weights over the rows that actually exist within reach: a
    // single-cartridge system keeps its full same-duct coupling
    // (Fig. 2), interior rows of a tall chassis spread theirs.
    std::vector<double> row_norm(leak.size(), 0.0);
    for (int row = min_row; row <= max_row; ++row) {
        double norm = 0.0;
        for (int r = min_row; r <= max_row; ++r) {
            const double w =
                leak[static_cast<std::size_t>(std::abs(r - row))];
            if (w >= 0.05)
                norm += w;
        }
        row_norm[static_cast<std::size_t>(row - min_row)] = norm;
    }

    // The mixing decay of each distinct streamwise distance, keyed by
    // the distance itself (==), so each keeps its own exp's bits. A
    // grid chassis has a handful; arbitrary sites memoize at most 16.
    std::vector<std::pair<double, double>> decays;
    const auto decayAt = [&](double d) {
        for (const auto &[dist, decay] : decays)
            if (dist == d)
                return decay;
        const double decay = std::exp(
            -(std::max(d, params_.minSpacingInch) -
              params_.minSpacingInch) /
            params_.decayLengthInch);
        if (decays.size() < 16)
            decays.emplace_back(d, decay);
        return decay;
    };
    // Every coefficient is a function of the two sites alone (the
    // source's position and duct; the destination's position, duct
    // and airflow), so a site equal to the previous socket's has that
    // socket's row, and that socket's coefficient as a destination.
    for (std::size_t from = 0; from < n; ++from) {
        const std::size_t row_begin = runs_.size();
        if (from > 0 && sites_[from] == sites_[from - 1]) {
            // Neither socket is strictly downstream of the other, so
            // both rows drop the same pair and agree everywhere else.
            for (std::size_t k = runOff_[from - 1]; k < row_begin; ++k) {
                runs_.push_back(runs_[k]);
                runAir_.push_back(runAir_[k]);
            }
            impact_[from] = impact_[from - 1];
            runOff_[from + 1] = runs_.size();
            continue;
        }
        const double norm = row_norm[static_cast<std::size_t>(
            sites_[from].duct - min_row)];
        bool coupled = false; // Whether `to` is in the row, at:
        double air = 0.0, amb = 0.0;
        for (std::size_t to = 0; to < n; ++to) {
            if (to == 0 || sites_[to] != sites_[to - 1]) {
                const double d = sites_[to].streamPosInch -
                                 sites_[from].streamPosInch;
                const std::size_t row_dist = static_cast<std::size_t>(
                    std::abs(sites_[from].duct - sites_[to].duct));
                // Only strictly-downstream coupling, within reach.
                coupled = from != to && d > 0.0 && leak[row_dist] >= 0.05;
                if (coupled) {
                    const double vertical = leak[row_dist] / norm;
                    const double gamma =
                        params_.mixFactor * decayAt(d) * vertical;
                    air = kCelsiusPerWattPerCfm * gamma /
                          sites_[to].ductCfm.value();
                    amb = air * params_.wakeFactor;
                }
            }
            if (!coupled)
                continue;
            impact_[from] += amb;
            // Pair left to right: a single run takes the next socket
            // as its second lane when their coefficients are equal.
            if (runs_.size() > row_begin) {
                CouplingRun &last = runs_.back();
                if (last.lanes == 1 && last.first + 1 == to &&
                    runAir_.back() == air) {
                    last.lanes = 2;
                    continue;
                }
            }
            runs_.push_back({static_cast<std::uint32_t>(to), 1, amb});
            runAir_.push_back(air);
        }
        runOff_[from + 1] = runs_.size();
    }
}

void
CouplingMap::checkIndex(std::size_t i) const
{
    if (i >= sites_.size())
        panic("CouplingMap: socket index ", i, " out of range (",
              sites_.size(), ")");
}

std::size_t
CouplingMap::findRun(std::size_t from, std::size_t to) const
{
    checkIndex(from);
    checkIndex(to);
    const CouplingRun *begin = runs_.data() + runOff_[from];
    const CouplingRun *end = runs_.data() + runOff_[from + 1];
    // The last run that starts at or before `to`.
    const CouplingRun *it =
        std::upper_bound(begin, end, to,
                         [](std::size_t id, const CouplingRun &run) {
                             return id < run.first;
                         });
    if (it == begin || to - (it - 1)->first >= (it - 1)->lanes)
        return runs_.size();
    return static_cast<std::size_t>(it - 1 - runs_.data());
}

KelvinPerWatt
CouplingMap::coeff(std::size_t from, std::size_t to) const
{
    const std::size_t k = findRun(from, to);
    return KelvinPerWatt(k == runs_.size() ? 0.0 : runs_[k].amb);
}

KelvinPerWatt
CouplingMap::airCoeff(std::size_t from, std::size_t to) const
{
    const std::size_t k = findRun(from, to);
    return KelvinPerWatt(k == runs_.size() ? 0.0 : runAir_[k]);
}

std::vector<double>
CouplingMap::entryTemps(const std::vector<double> &powers_w,
                        Celsius inlet) const
{
    if (powers_w.size() != sites_.size())
        panic("CouplingMap::entryTemps: ", powers_w.size(),
              " powers for ", sites_.size(), " sockets");
    const std::size_t n = sites_.size();
    std::vector<double> temps(n, inlet.value());
    for (std::size_t j = 0; j < n; ++j) {
        const double p = powers_w[j];
        if (p == 0.0)
            continue;
        for (std::size_t k = runOff_[j]; k < runOff_[j + 1]; ++k)
            addRun(temps.data(), runs_[k], runAir_[k] * p);
    }
    return temps;
}

std::vector<double>
CouplingMap::ambientTemps(const std::vector<double> &powers_w,
                          Celsius inlet) const
{
    if (powers_w.size() != sites_.size())
        panic("CouplingMap::ambientTemps: ", powers_w.size(),
              " powers for ", sites_.size(), " sockets");
    const std::size_t n = sites_.size();
    std::vector<double> temps(n);
    ambientTempsInto(temps.data(), n, powers_w.data(), inlet);
    return temps;
}

void
CouplingMap::ambientTempsInto(double *out_c, std::size_t n,
                              const double *powers_w,
                              Celsius inlet) const
{
    if (n != sites_.size())
        panic("CouplingMap::ambientTempsInto: ", n, " temps for ",
              sites_.size(), " sockets");
    const double inlet_c = inlet.value();
    for (std::size_t i = 0; i < n; ++i)
        out_c[i] = inlet_c;
    for (std::size_t j = 0; j < n; ++j) {
        const double p = powers_w[j];
        if (p == 0.0)
            continue;
        for (const CouplingRun &run : runs(j))
            addRun(out_c, run, run.amb * p);
    }
    const double kappa = params_.kappaLocal;
    for (std::size_t i = 0; i < n; ++i)
        out_c[i] += kappa * powers_w[i];
}

void
CouplingMap::applyPowerDeltas(std::vector<double> &temps,
                              const std::vector<std::size_t> &sockets,
                              std::vector<double> &field_w,
                              const std::vector<double> &power_w) const
{
    const std::size_t n = sites_.size();
    if (temps.size() != n || field_w.size() != n || power_w.size() != n)
        badPowerDeltas(0, temps.size(), field_w.size(), power_w.size());
    double *out = temps.data();
    const double kappa = params_.kappaLocal;
    const std::size_t count = sockets.size();
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t s = sockets[i];
        if (s >= n)
            badPowerDeltas(s, n, n, n);
        const double dp = power_w[s] - field_w[s];
        field_w[s] = power_w[s];
        if (dp == 0.0)
            continue;
        for (const CouplingRun &run : runs(s))
            addRun(out, run, run.amb * dp);
        out[s] += kappa * dp;
    }
}

void
CouplingMap::badPowerDeltas(std::size_t socket, std::size_t temps,
                            std::size_t field, std::size_t power) const
{
    checkIndex(socket);
    panic("CouplingMap::applyPowerDeltas: ", temps, " temps, ", field,
          " field powers and ", power, " powers for ", sites_.size(),
          " sockets");
}

void
CouplingMap::checkAmbientFieldPhysics(
    const std::vector<double> &powers_w, Celsius inlet,
    const std::vector<double> &field_c) const
{
#if DENSIM_ENABLE_CHECKS
    const double inlet_c = inlet.value();
    const std::size_t n = sites_.size();
    DENSIM_CHECK(powers_w.size() == n && field_c.size() == n,
                 "CouplingMap: field/power size mismatch");
    double total_w = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        DENSIM_CHECK(std::isfinite(powers_w[j]) && powers_w[j] >= 0.0,
                     "CouplingMap: socket ", j,
                     " dissipates unphysical power ", powers_w[j], " W");
        total_w += powers_w[j];
    }
    // Per-source ambient coefficients are bounded by the well-mixed
    // first-law rise times mixFactor (decay <= 1, leak share <= 1)
    // times the wake amplification, so the upstream rise at socket i
    // cannot exceed that envelope applied to the total server power.
    const double amp = params_.mixFactor * params_.wakeFactor;
    const double tol = 1e-9 * std::max(1.0, std::fabs(inlet_c));
    for (std::size_t i = 0; i < n; ++i) {
        const double rise = field_c[i] - inlet_c;
        DENSIM_CHECK(rise >= -tol, "CouplingMap: socket ", i,
                     " ambient ", field_c[i],
                     " C below the inlet — heated air cannot cool");
        const double bound = amp * kCelsiusPerWattPerCfm * total_w /
                                 sites_[i].ductCfm.value() +
                             params_.kappaLocal * powers_w[i];
        DENSIM_CHECK(rise <= bound + tol, "CouplingMap: socket ", i,
                     " ambient rise ", rise,
                     " C exceeds the first-law envelope ", bound, " C");
    }
#else
    (void)powers_w;
    (void)inlet;
    (void)field_c;
#endif
}

KelvinPerWatt
CouplingMap::downstreamImpact(std::size_t from) const
{
    checkIndex(from);
    return KelvinPerWatt(impact_[from]);
}

} // namespace densim

#include "thermal/hotspot_model.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace densim {

PowerMap::PowerMap(int map_grid, std::vector<double> frac)
    : grid_(map_grid), frac_(std::move(frac))
{
}

PowerMap
PowerMap::uniform(int map_grid)
{
    if (map_grid < 1)
        fatal("PowerMap: grid must be >= 1, got ", map_grid);
    const auto n = static_cast<std::size_t>(map_grid) * map_grid;
    return PowerMap(map_grid,
                    std::vector<double>(n, 1.0 / static_cast<double>(n)));
}

PowerMap
PowerMap::concentrated(int map_grid, double hot_fraction, HotBlock block)
{
    if (map_grid < 1)
        fatal("PowerMap: grid must be >= 1, got ", map_grid);
    if (hot_fraction < 0.0 || hot_fraction > 1.0)
        fatal("PowerMap: hot fraction ", hot_fraction,
              " outside [0, 1]");
    if (block.size < 1 || block.row < 0 || block.col < 0 ||
        block.row + block.size > map_grid ||
        block.col + block.size > map_grid) {
        fatal("PowerMap: hot block [", block.row, ",", block.col, ")+",
              block.size, " does not fit a ", map_grid, "x", map_grid,
              " grid");
    }
    const auto n = static_cast<std::size_t>(map_grid) * map_grid;
    const auto hot_cells = static_cast<std::size_t>(block.size) *
                           block.size;
    if (hot_cells == n)
        return uniform(map_grid);
    std::vector<double> frac(
        n, (1.0 - hot_fraction) / static_cast<double>(n - hot_cells));
    for (int r = block.row; r < block.row + block.size; ++r) {
        for (int c = block.col; c < block.col + block.size; ++c) {
            frac[static_cast<std::size_t>(r) * map_grid + c] =
                hot_fraction / static_cast<double>(hot_cells);
        }
    }
    return PowerMap(map_grid, std::move(frac));
}

double
PowerMap::at(int r, int c) const
{
    if (r < 0 || c < 0 || r >= grid_ || c >= grid_)
        panic("PowerMap::at(", r, ",", c, ") outside grid ", grid_);
    return frac_[static_cast<std::size_t>(r) * grid_ + c];
}

HotSpotModel::HotSpotModel(const ChipStackParams &stack_params,
                           const HeatSink &chip_sink)
    : params_(stack_params), sink_(chip_sink)
{
    const int g = params_.grid;
    if (g < 2)
        fatal("HotSpotModel: grid must be >= 2, got ", g);
    const auto cells = static_cast<std::size_t>(g) * g;
    const double cell_area = params_.dieAreaM2 / static_cast<double>(cells);
    const double cell_cap =
        params_.siliconVolHeat * cell_area * params_.dieThicknessM;

    cellNodes_.reserve(cells);
    for (int r = 0; r < g; ++r) {
        for (int c = 0; c < g; ++c) {
            cellNodes_.push_back(net_.addNode(
                "die[" + std::to_string(r) + "," + std::to_string(c) +
                    "]",
                JoulePerKelvin(cell_cap)));
        }
    }

    const double frac_sum = params_.dieVertFraction +
                            params_.timFraction + params_.baseFraction;
    if (frac_sum < 0.999 || frac_sum > 1.001)
        fatal("HotSpotModel: vertical layer fractions must sum to 1, "
              "got ",
              frac_sum);

    // Sink base plate cells (the package's lateral spreader).
    const double base_cell_cap = params_.baseVolHeat * cell_area *
                                 params_.baseThicknessM *
                                 params_.baseSpreadFactor;
    baseNodes_.reserve(cells);
    for (int r = 0; r < g; ++r) {
        for (int c = 0; c < g; ++c) {
            baseNodes_.push_back(net_.addNode(
                "base[" + std::to_string(r) + "," +
                    std::to_string(c) + "]",
                JoulePerKelvin(base_cell_cap)));
        }
    }

    // Lumped fin/sink node. Its capacitance sets the sink/socket time
    // constant to params_.socketTauS (Table III: 30 s).
    const double sink_cap = params_.socketTauS / sink_.rExt.value();
    sinkNode_ = net_.addNode("sink", JoulePerKelvin(sink_cap));

    // Vertical chain per cell: die -> (bulk Si + TIM) -> base plate
    // cell -> fin node. The per-cell series total is rIntTotal * N,
    // so the parallel combination across all cells equals rIntTotal
    // exactly and a uniform power map yields mean die temperature
    // T_amb + P*(R_int + R_ext).
    const double n_cells = static_cast<double>(cells);
    const double r_die_tim = params_.rIntTotal * n_cells *
                             (params_.dieVertFraction +
                              params_.timFraction);
    const double r_base_vert =
        params_.rIntTotal * n_cells * params_.baseFraction;
    for (std::size_t i = 0; i < cells; ++i) {
        net_.connect(cellNodes_[i], baseNodes_[i],
                     KelvinPerWatt(r_die_tim));
        net_.connect(baseNodes_[i], sinkNode_,
                     KelvinPerWatt(r_base_vert));
    }

    // Lateral conduction between 4-neighbours: silicon sheet in the
    // die layer, aluminum plate in the base layer.
    const double g_lat = params_.siliconK * params_.dieThicknessM *
                         params_.lateralSpreadFactor;
    if (g_lat <= 0.0)
        fatal("HotSpotModel: non-positive lateral conductance");
    const double r_lat = 1.0 / g_lat;
    const double g_base = params_.baseK * params_.baseThicknessM *
                          params_.baseSpreadFactor;
    const double r_base_lat = 1.0 / g_base;
    auto node = [&](int r, int c) {
        return cellNodes_[static_cast<std::size_t>(r) * g + c];
    };
    auto base = [&](int r, int c) {
        return baseNodes_[static_cast<std::size_t>(r) * g + c];
    };
    for (int r = 0; r < g; ++r) {
        for (int c = 0; c < g; ++c) {
            if (c + 1 < g) {
                net_.connect(node(r, c), node(r, c + 1),
                             KelvinPerWatt(r_lat));
                net_.connect(base(r, c), base(r, c + 1),
                             KelvinPerWatt(r_base_lat));
            }
            if (r + 1 < g) {
                net_.connect(node(r, c), node(r + 1, c),
                             KelvinPerWatt(r_lat));
                net_.connect(base(r, c), base(r + 1, c),
                             KelvinPerWatt(r_base_lat));
            }
        }
    }

    net_.connectAmbient(sinkNode_, sink_.rExt);
}

std::vector<double>
HotSpotModel::nodePowers(Watts power, const PowerMap &map) const
{
    if (map.grid() != params_.grid)
        fatal("HotSpotModel: power map grid ", map.grid(),
              " does not match model grid ", params_.grid);
    const double power_w = power.value();
    if (power_w < 0.0)
        fatal("HotSpotModel: negative power ", power_w);
    std::vector<double> powers(net_.size(), 0.0);
    for (std::size_t i = 0; i < cellNodes_.size(); ++i)
        powers[cellNodes_[i]] = power_w * map.fractions()[i];
    return powers;
}

ChipThermalField
HotSpotModel::steady(Watts power, const PowerMap &map,
                     Celsius t_amb) const
{
    const auto temps =
        net_.steadyState(nodePowers(power, map), t_amb);
    return summarize(temps);
}

void
HotSpotModel::transientStep(std::vector<double> &state, Watts power,
                            const PowerMap &map, Celsius t_amb,
                            Seconds dt) const
{
    net_.transientStep(state, nodePowers(power, map), t_amb,
                       dt);
}

std::vector<double>
HotSpotModel::initialState(Celsius t_amb) const
{
    return std::vector<double>(net_.size(), t_amb.value());
}

ChipThermalField
HotSpotModel::summarize(const std::vector<double> &state) const
{
    if (state.size() != net_.size())
        panic("HotSpotModel::summarize: state size mismatch");
    ChipThermalField field;
    field.dieTemps.reserve(cellNodes_.size());
    double acc = 0.0;
    field.maxT = -1e300;
    field.minT = 1e300;
    for (NodeId cell : cellNodes_) {
        const double t = state[cell];
        field.dieTemps.push_back(t);
        acc += t;
        field.maxT = std::max(field.maxT, t);
        field.minT = std::min(field.minT, t);
    }
    field.avgT = acc / static_cast<double>(cellNodes_.size());
    field.sinkTemp = state[sinkNode_];
    return field;
}

double
defaultHotFraction(Watts power)
{
    // Low-power workloads keep one unit busy (concentrated); high
    // power means the whole die is active (flatter map). Calibrated
    // jointly with ChipStackParams so the residual
    // maxT - (T_amb + P*(R_int+R_ext)) tracks theta(P, sink) of
    // Table III within the 2 C envelope of Fig. 10.
    return std::clamp(0.99 - 0.024 * power.value(), 0.25, 0.95);
}

} // namespace densim

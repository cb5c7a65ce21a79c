#include "thermal/rc_network.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/invariant.hh"
#include "util/logging.hh"

namespace densim {

NodeId
RCNetwork::addNode(std::string node_name, JoulePerKelvin node_capacitance)
{
    if (node_capacitance.value() < 0.0)
        fatal("RCNetwork: negative capacitance for node '", node_name,
              "'");
    nodes_.push_back(Node{std::move(node_name), node_capacitance.value()});
    return nodes_.size() - 1;
}

void
RCNetwork::checkNode(NodeId a) const
{
    if (a >= nodes_.size())
        panic("RCNetwork: node id ", a, " out of range (", nodes_.size(),
              " nodes)");
}

void
RCNetwork::connect(NodeId a, NodeId b, KelvinPerWatt resistance)
{
    checkNode(a);
    checkNode(b);
    if (a == b)
        panic("RCNetwork: self-loop on node ", a);
    if (resistance.value() <= 0.0)
        fatal("RCNetwork: resistance must be positive, got ",
              resistance.value());
    edges_.push_back(Edge{a, b, 1.0 / resistance.value()});
}

void
RCNetwork::connectAmbient(NodeId a, KelvinPerWatt resistance)
{
    checkNode(a);
    if (resistance.value() <= 0.0)
        fatal("RCNetwork: ambient resistance must be positive, got ",
              resistance.value());
    nodes_[a].ambientConductance += 1.0 / resistance.value();
}

const std::string &
RCNetwork::name(NodeId a) const
{
    checkNode(a);
    return nodes_[a].name;
}

JoulePerKelvin
RCNetwork::capacitance(NodeId a) const
{
    checkNode(a);
    return JoulePerKelvin(nodes_[a].capacitance);
}

std::vector<double>
RCNetwork::steadyState(const std::vector<double> &powers_w,
                       Celsius ambient) const
{
    const double t_ambient = ambient.value();
    const std::size_t n = nodes_.size();
    if (powers_w.size() != n)
        panic("RCNetwork::steadyState: ", powers_w.size(),
              " powers for ", n, " nodes");

    // Build the dense conductance matrix G and the right-hand side.
    std::vector<double> g(n * n, 0.0);
    std::vector<double> rhs(n);
    for (std::size_t i = 0; i < n; ++i) {
        g[i * n + i] = nodes_[i].ambientConductance;
        rhs[i] = powers_w[i] + nodes_[i].ambientConductance * t_ambient;
    }
    for (const Edge &e : edges_) {
        g[e.a * n + e.a] += e.conductance;
        g[e.b * n + e.b] += e.conductance;
        g[e.a * n + e.b] -= e.conductance;
        g[e.b * n + e.a] -= e.conductance;
    }

    // Gaussian elimination with partial pivoting, rows swapped
    // through the permutation rather than in memory.
    std::vector<std::size_t> perm(n);
    for (std::size_t i = 0; i < n; ++i)
        perm[i] = i;
    for (std::size_t col = 0; col < n; ++col) {
        std::size_t pivot = col;
        double best = std::fabs(g[perm[col] * n + col]);
        for (std::size_t r = col + 1; r < n; ++r) {
            const double v = std::fabs(g[perm[r] * n + col]);
            if (v > best) {
                best = v;
                pivot = r;
            }
        }
        if (best < 1e-14)
            fatal("RCNetwork: singular conductance matrix — some node "
                  "has no path to the ambient");
        std::swap(perm[col], perm[pivot]);
        const std::size_t prow = perm[col];
        const double diag = g[prow * n + col];
        for (std::size_t r = col + 1; r < n; ++r) {
            const std::size_t row = perm[r];
            const double factor = g[row * n + col] / diag;
            if (factor != 0.0) {
                for (std::size_t c = col + 1; c < n; ++c)
                    g[row * n + c] -= factor * g[prow * n + c];
                rhs[row] -= factor * rhs[prow];
            }
        }
    }

    // Back substitution; unknowns come out in column order, which is
    // node order (columns are never permuted).
    std::vector<double> temps(n, 0.0);
    for (std::size_t ri = n; ri-- > 0;) {
        const std::size_t row = perm[ri];
        double acc = rhs[row];
        for (std::size_t c = ri + 1; c < n; ++c)
            acc -= g[row * n + c] * temps[c];
        temps[ri] = acc / g[row * n + ri];
    }

#if DENSIM_ENABLE_PARANOID
    // Solver check: recompute each node's heat balance from the
    // node/edge lists. A wrong elimination or substitution leaves a
    // nonzero nodal residual.
    double scale = 1.0;
    for (std::size_t i = 0; i < n; ++i)
        scale = std::max(scale, std::fabs(powers_w[i]));
    std::vector<double> residual(n);
    for (std::size_t i = 0; i < n; ++i) {
        residual[i] = powers_w[i] + nodes_[i].ambientConductance *
                                        (t_ambient - temps[i]);
    }
    for (const Edge &e : edges_) {
        const double q = e.conductance * (temps[e.b] - temps[e.a]);
        residual[e.a] += q;
        residual[e.b] -= q;
    }
    for (std::size_t i = 0; i < n; ++i) {
        DENSIM_PARANOID(std::fabs(residual[i]) <= 1e-6 * scale,
                        "RCNetwork: steady-state solve is off — "
                        "heat residual ", residual[i], " W at node '",
                        nodes_[i].name, "'");
    }
    // First law: at steady state the power crossing the ambient links
    // equals the total injected power.
    double injected = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        injected += powers_w[i];
    const double outflow = ambientHeatFlow(temps, ambient).value();
    DENSIM_PARANOID(
        std::fabs(outflow - injected) <= 1e-6 * std::max(1.0, injected),
        "RCNetwork: first-law violation — ", injected,
        " W injected but ", outflow, " W crosses the ambient links");
#endif
    return temps;
}

Seconds
RCNetwork::stableStep() const
{
    const std::size_t n = nodes_.size();
    std::vector<double> gtot(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        gtot[i] = nodes_[i].ambientConductance;
    for (const Edge &e : edges_) {
        gtot[e.a] += e.conductance;
        gtot[e.b] += e.conductance;
    }
    double dt = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
        if (nodes_[i].capacitance <= 0.0)
            fatal("RCNetwork: transient use requires positive "
                  "capacitance on node '",
                  nodes_[i].name, "'");
        if (gtot[i] > 0.0)
            dt = std::min(dt, nodes_[i].capacitance / gtot[i]);
    }
    // Safety factor below the explicit-Euler limit.
    return Seconds(0.5 * dt);
}

void
RCNetwork::transientStep(std::vector<double> &temps,
                         const std::vector<double> &powers_w,
                         Celsius ambient, Seconds dt) const
{
    const double t_ambient = ambient.value();
    const double dt_seconds = dt.value();
    const std::size_t n = nodes_.size();
    if (temps.size() != n || powers_w.size() != n)
        panic("RCNetwork::transientStep: vector size mismatch");
    if (dt_seconds < 0.0)
        panic("RCNetwork::transientStep: negative dt");

    const double dt_max = stableStep().value();
    const auto steps = static_cast<std::size_t>(
        std::ceil(dt_seconds / dt_max));
    if (steps == 0)
        return;
    const double h = dt_seconds / static_cast<double>(steps);

    std::vector<double> flow(n);
    for (std::size_t s = 0; s < steps; ++s) {
        for (std::size_t i = 0; i < n; ++i) {
            flow[i] = powers_w[i] +
                      nodes_[i].ambientConductance *
                          (t_ambient - temps[i]);
        }
        for (const Edge &e : edges_) {
            const double q = e.conductance * (temps[e.b] - temps[e.a]);
            flow[e.a] += q;
            flow[e.b] -= q;
        }
        for (std::size_t i = 0; i < n; ++i)
            temps[i] += h * flow[i] / nodes_[i].capacitance;
    }
}

Watts
RCNetwork::ambientHeatFlow(const std::vector<double> &temps,
                           Celsius ambient) const
{
    const double t_ambient = ambient.value();
    if (temps.size() != nodes_.size())
        panic("RCNetwork::ambientHeatFlow: vector size mismatch");
    double total = 0.0;
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        total += nodes_[i].ambientConductance * (temps[i] - t_ambient);
    return Watts(total);
}

} // namespace densim

/**
 * @file
 * Compact thermal RC network: the numerical core of densim's
 * HotSpot-class chip model.
 *
 * A network is a set of nodes (each with a heat capacitance) joined
 * by thermal resistances, with optional resistive links to the
 * ambient. Heat is injected per node. Supported queries:
 *
 *  - steadyState(): solve G*T = P + G_amb*T_amb by dense Gaussian
 *    elimination with partial pivoting (node counts here are a few
 *    hundred at most);
 *  - transientStep(): advance node temperatures by explicit Euler with
 *    automatic sub-stepping below the stability limit
 *    min_i C_i / Gtot_i.
 *
 * Queries keep no state, so const queries are safe from several
 * threads at once.
 *
 * The electrical analogy is exact: temperature = voltage, heat flow =
 * current, so steady state conserves energy (total injected power
 * equals total power crossing ambient links), which the test suite
 * verifies as an invariant.
 */

#ifndef DENSIM_THERMAL_RC_NETWORK_HH
#define DENSIM_THERMAL_RC_NETWORK_HH

#include <cstddef>
#include <string>
#include <vector>

#include "core/units.hh"

namespace densim {

/** Index of a node within an RCNetwork. */
using NodeId = std::size_t;

/** A thermal resistance–capacitance network. */
class RCNetwork
{
  public:
    /**
     * Add a node.
     * @param name Diagnostic label.
     * @param capacitance Heat capacitance (0 allowed for
     *        steady-state-only networks).
     * @return The new node's id.
     */
    NodeId addNode(std::string name, JoulePerKelvin capacitance);

    /** Connect two nodes with a thermal resistance (> 0). */
    void connect(NodeId a, NodeId b, KelvinPerWatt resistance);

    /** Connect a node to the ambient with a thermal resistance. */
    void connectAmbient(NodeId a, KelvinPerWatt resistance);

    /** Number of nodes. */
    std::size_t size() const { return nodes_.size(); }

    /** Name of node @p a. */
    const std::string &name(NodeId a) const;

    /** Capacitance of node @p a. */
    JoulePerKelvin capacitance(NodeId a) const;

    /**
     * Steady-state temperatures for per-node injected @p powers_w and
     * ambient temperature @p t_ambient. Fails if any node is isolated
     * from the ambient (the system would be singular). Bulk
     * power/temperature fields stay raw doubles across this interface
     * — the engine's hot-path boundary (DESIGN.md Sec. 9).
     */
    std::vector<double> steadyState(const std::vector<double> &powers_w,
                                    Celsius t_ambient) const;

    /**
     * Advance @p temps by @p dt under constant @p powers_w and
     * ambient. Sub-steps internally for stability; requires all
     * capacitances positive.
     */
    void transientStep(std::vector<double> &temps,
                       const std::vector<double> &powers_w,
                       Celsius t_ambient, Seconds dt) const;

    /**
     * Net heat flow from the network into the ambient for the
     * given temperature field — equals total injected power at steady
     * state (energy-conservation invariant).
     */
    Watts ambientHeatFlow(const std::vector<double> &temps,
                          Celsius t_ambient) const;

    /** Largest stable explicit-Euler step. */
    Seconds stableStep() const;

  private:
    struct Node
    {
        std::string name;
        double capacitance;
        double ambientConductance = 0.0;
    };

    struct Edge
    {
        NodeId a;
        NodeId b;
        double conductance;
    };

    void checkNode(NodeId a) const;

    std::vector<Node> nodes_;
    std::vector<Edge> edges_;
};

} // namespace densim

#endif // DENSIM_THERMAL_RC_NETWORK_HH

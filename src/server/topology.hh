/**
 * @file
 * Physical socket organization of a density-optimized server.
 *
 * The SUT (Sec. II/III, Figs. 8 and 12) is organized as rows of
 * cartridges: 15 rows, each with 3 cartridges in series along the
 * airflow, each cartridge holding 2 thermally coupled *zones* of 2
 * side-by-side sockets — 12 sockets and 6 zones per row, 180 sockets
 * total. Odd zones (1, 3, 5) carry the 18-fin heat sink, even zones
 * (2, 4, 6) the better 30-fin sink. Zones within a cartridge sit
 * 1.6 in apart; adjacent zones across a cartridge boundary are 3 in
 * apart, which weakens (but does not remove) their coupling.
 *
 * ServerTopology is pure geometry/bookkeeping: it knows where every
 * socket is, which sink it has, and produces the SocketSite list the
 * thermal CouplingMap is built from. It holds no mutable simulation
 * state.
 */

#ifndef DENSIM_SERVER_TOPOLOGY_HH
#define DENSIM_SERVER_TOPOLOGY_HH

#include <cstddef>
#include <vector>

#include "thermal/coupling_map.hh"
#include "thermal/heatsink.hh"

namespace densim {

/** Parameters describing a modular dense-server build. */
struct TopologySpec
{
    int rows = 15;               //!< Parallel row ducts.
    int cartridgesPerRow = 3;    //!< Cartridges in series per row.
    int zonesPerCartridge = 2;   //!< Coupled zones per cartridge.
    int socketsPerZone = 2;      //!< Side-by-side sockets per zone.
    double intraZoneSpacingInch = 1.6; //!< Zone pitch in a cartridge.
    double interCartridgeGapInch = 3.0; //!< Gap between cartridges.
    double perSocketCfm = 6.35;  //!< Airflow share per socket, CFM.
    double inletC = 18.0;        //!< Server inlet air temperature, C.
    /**
     * Assign sinks by row parity (even rows 18-fin, odd rows 30-fin)
     * instead of zone parity — used by the Fig. 3 uncoupled build,
     * where both sockets sit in zone 1 of their own duct but must
     * keep the coupled build's sink mix.
     */
    bool alternateSinksByRow = false;

    // The raw-double fields above are the config_io boundary; typed
    // views for model code:

    /** Inlet air temperature as a typed quantity. */
    Celsius inlet() const { return Celsius(inletC); }
};

/** Immutable geometry of one server. */
class ServerTopology
{
  public:
    explicit ServerTopology(TopologySpec spec);

    /** Total socket count. */
    std::size_t numSockets() const
    {
        return static_cast<std::size_t>(spec_.rows) * socketsPerRow();
    }

    /** Zones in series along one duct. */
    int zonesPerRow() const
    {
        return spec_.cartridgesPerRow * spec_.zonesPerCartridge;
    }

    /** Sockets in one row duct. */
    int socketsPerRow() const
    {
        return zonesPerRow() * spec_.socketsPerZone;
    }

    int numRows() const { return spec_.rows; }

    /** Row (duct) of a socket. */
    int rowOf(std::size_t socket) const;

    /** Zero-based zone index within the row (0 .. zonesPerRow-1). */
    int zoneIndexOf(std::size_t socket) const;

    /** Paper-style one-based zone id (Fig. 12: 1..6 for the SUT). */
    int zoneIdOf(std::size_t socket) const { return zoneIndexOf(socket) + 1; }

    /** Streamwise position (inches from the row inlet). */
    double streamPosOf(std::size_t socket) const;

    /**
     * Heat sink at a socket: odd zones 18-fin, even zones 30-fin,
     * unless overridden via overrideSink().
     */
    const HeatSink &sinkOf(std::size_t socket) const;

    /**
     * Override the sink at one socket (used by the Fig. 3 uncoupled
     * build, where the sink mix must match the coupled build even
     * though both sockets sit in zone 1 of their own duct).
     */
    void overrideSink(std::size_t socket, const HeatSink &sink);

    /** Is the socket in the front (inlet) half of the row? */
    bool inFrontHalf(std::size_t socket) const;

    /** Is the socket in an even (better-sink) zone? */
    bool inEvenZone(std::size_t socket) const;

    /** All sockets of row @p row, in stream order. */
    std::vector<std::size_t> socketsInRow(int row) const;

    /** All sockets of paper zone @p zone_id across all rows. */
    std::vector<std::size_t> socketsInZone(int zone_id) const;

    /** Sites for CouplingMap construction (index == socket id). */
    std::vector<SocketSite> sites() const;

    /**
     * Degree of thermal coupling in this organization: the number of
     * sockets that share one airflow path (zones in series times
     * sockets per zone). Table I reports the analogous figure for
     * commercial systems.
     */
    int degreeOfCoupling() const;

    /** Airflow shared at one zone station of a duct. */
    Cfm zoneCfm() const;

    const TopologySpec &spec() const { return spec_; }

  private:
    void checkSocket(std::size_t socket) const;

    TopologySpec spec_;
    std::vector<const HeatSink *> sinkOverride_;
};

} // namespace densim

#endif // DENSIM_SERVER_TOPOLOGY_HH

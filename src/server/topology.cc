#include "server/topology.hh"

#include "util/logging.hh"

namespace densim {

ServerTopology::ServerTopology(TopologySpec topo_spec)
    : spec_(topo_spec)
{
    if (spec_.rows < 1 || spec_.cartridgesPerRow < 1 ||
        spec_.zonesPerCartridge < 1 || spec_.socketsPerZone < 1) {
        fatal("ServerTopology: all structural counts must be >= 1");
    }
    if (spec_.intraZoneSpacingInch <= 0.0 ||
        spec_.interCartridgeGapInch < 0.0) {
        fatal("ServerTopology: invalid spacing");
    }
    if (spec_.perSocketCfm <= 0.0)
        fatal("ServerTopology: per-socket airflow must be positive");
}

void
ServerTopology::checkSocket(std::size_t socket) const
{
    if (socket >= numSockets())
        panic("socket id ", socket, " out of range (", numSockets(),
              ")");
}

int
ServerTopology::rowOf(std::size_t socket) const
{
    checkSocket(socket);
    return static_cast<int>(socket / socketsPerRow());
}

int
ServerTopology::zoneIndexOf(std::size_t socket) const
{
    checkSocket(socket);
    const auto in_row = static_cast<int>(socket % socketsPerRow());
    return in_row / spec_.socketsPerZone;
}

double
ServerTopology::streamPosOf(std::size_t socket) const
{
    const int zone = zoneIndexOf(socket);
    const int cartridge = zone / spec_.zonesPerCartridge;
    const int within = zone % spec_.zonesPerCartridge;
    const double cartridge_pitch =
        (spec_.zonesPerCartridge - 1) * spec_.intraZoneSpacingInch +
        spec_.interCartridgeGapInch;
    return cartridge * cartridge_pitch +
           within * spec_.intraZoneSpacingInch;
}

const HeatSink &
ServerTopology::sinkOf(std::size_t socket) const
{
    checkSocket(socket);
    if (socket < sinkOverride_.size() && sinkOverride_[socket])
        return *sinkOverride_[socket];
    if (spec_.alternateSinksByRow) {
        return rowOf(socket) % 2 == 0 ? HeatSink::fin18()
                                      : HeatSink::fin30();
    }
    // Paper zones are one-based: odd -> 18-fin, even -> 30-fin.
    return zoneIdOf(socket) % 2 == 1 ? HeatSink::fin18()
                                     : HeatSink::fin30();
}

void
ServerTopology::overrideSink(std::size_t socket, const HeatSink &sink)
{
    checkSocket(socket);
    if (sinkOverride_.size() < numSockets())
        sinkOverride_.resize(numSockets(), nullptr);
    sinkOverride_[socket] = &sink;
}

bool
ServerTopology::inFrontHalf(std::size_t socket) const
{
    return zoneIndexOf(socket) < (zonesPerRow() + 1) / 2;
}

bool
ServerTopology::inEvenZone(std::size_t socket) const
{
    return zoneIdOf(socket) % 2 == 0;
}

std::vector<std::size_t>
ServerTopology::socketsInRow(int row) const
{
    if (row < 0 || row >= spec_.rows)
        panic("row ", row, " out of range (", spec_.rows, ")");
    std::vector<std::size_t> sockets;
    sockets.reserve(socketsPerRow());
    const std::size_t base =
        static_cast<std::size_t>(row) * socketsPerRow();
    for (int i = 0; i < socketsPerRow(); ++i)
        sockets.push_back(base + i);
    return sockets;
}

std::vector<std::size_t>
ServerTopology::socketsInZone(int zone_id) const
{
    if (zone_id < 1 || zone_id > zonesPerRow())
        panic("zone id ", zone_id, " out of range (1..", zonesPerRow(),
              ")");
    std::vector<std::size_t> sockets;
    for (std::size_t s = 0; s < numSockets(); ++s) {
        if (zoneIdOf(s) == zone_id)
            sockets.push_back(s);
    }
    return sockets;
}

std::vector<SocketSite>
ServerTopology::sites() const
{
    std::vector<SocketSite> result;
    result.reserve(numSockets());
    for (std::size_t s = 0; s < numSockets(); ++s) {
        result.push_back(SocketSite{
            streamPosOf(s),
            rowOf(s),
            zoneCfm(),
        });
    }
    return result;
}

int
ServerTopology::degreeOfCoupling() const
{
    return zonesPerRow() * spec_.socketsPerZone;
}

Cfm
ServerTopology::zoneCfm() const
{
    return Cfm(spec_.perSocketCfm * spec_.socketsPerZone);
}

} // namespace densim

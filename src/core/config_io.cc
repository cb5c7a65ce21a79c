#include "core/config_io.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <type_traits>
#include <vector>

#include "util/fs.hh"
#include "util/logging.hh"

namespace densim {

namespace {

std::string
trim(const std::string &s)
{
    const auto first = s.find_first_not_of(" \t\r");
    if (first == std::string::npos)
        return "";
    const auto last = s.find_last_not_of(" \t\r");
    return s.substr(first, last - first + 1);
}

double
parseDouble(const std::string &key, const std::string &value)
{
    std::size_t used = 0;
    double out = 0.0;
    try {
        out = std::stod(value, &used);
    } catch (const std::exception &) {
        fatal("config: cannot parse '", value, "' for key '", key,
              "'");
    }
    if (used != value.size())
        fatal("config: trailing junk in '", value, "' for key '", key,
              "'");
    // Every validate() bound compares false against NaN, so a
    // non-finite value would slip past all of them.
    if (!std::isfinite(out))
        fatal("config: key '", key, "' needs a finite number, got '",
              value, "'");
    return out;
}

int
parseInt(const std::string &key, const std::string &value)
{
    const double d = parseDouble(key, value);
    // Range first: casting an out-of-range double to int is undefined.
    if (d < std::numeric_limits<int>::min() ||
        d > std::numeric_limits<int>::max() || d != std::trunc(d))
        fatal("config: key '", key, "' needs an integer, got '", value,
              "'");
    return static_cast<int>(d);
}

/** Shortest text that parses back to exactly @p v. */
std::string
formatDouble(double v)
{
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::uint64_t
parseU64(const std::string &key, const std::string &value)
{
    // Not via parseDouble: a 64-bit seed has more digits than a
    // double has mantissa, and a seed that silently rounds is a
    // reproducibility bug. Digits only: std::stoull would skip
    // blanks and negate a leading '-' ("-1" -> 2^64 - 1).
    std::uint64_t out = 0;
    const char *end = value.data() + value.size();
    const auto res = std::from_chars(value.data(), end, out);
    if (res.ec != std::errc())
        fatal("config: cannot parse '", value, "' for key '", key,
              "'");
    if (res.ptr != end)
        fatal("config: trailing junk in '", value, "' for key '", key,
              "'");
    return out;
}

bool
parseBool(const std::string &key, const std::string &value)
{
    if (value == "true" || value == "1" || value == "yes")
        return true;
    if (value == "false" || value == "0" || value == "no")
        return false;
    fatal("config: key '", key, "' needs a boolean, got '", value,
          "'");
}

WorkloadSet
parseWorkload(const std::string &key, const std::string &value)
{
    for (WorkloadSet set : allWorkloadSets()) {
        if (value == workloadSetName(set))
            return set;
    }
    fatal("config: key '", key, "' needs one of Computation/GP/"
          "Storage, got '",
          value, "'");
}

/** One settable key: apply and serialize. */
struct KeyOps
{
    std::function<void(SimConfig &, const std::string &,
                       const std::string &)>
        apply;
    std::function<std::string(const SimConfig &)> print;
};

/** The part of @p c that holds the members of @p Part. */
template <typename Part, typename Config>
auto &
partOf(Config &c)
{
    if constexpr (std::is_same_v<Part, SimConfig>)
        return c;
    else if constexpr (std::is_same_v<Part, TopologySpec>)
        return c.topo;
    else if constexpr (std::is_same_v<Part, CouplingParams>)
        return c.coupling;
    else if constexpr (std::is_same_v<Part, FaultConfig>)
        return c.fault;
    else {
        static_assert(std::is_same_v<Part, FleetConfig>);
        return c.fleet;
    }
}

template <typename T>
T
parseAs(const std::string &key, const std::string &value)
{
    if constexpr (std::is_same_v<T, double>)
        return parseDouble(key, value);
    else if constexpr (std::is_same_v<T, int>)
        return parseInt(key, value);
    else if constexpr (std::is_same_v<T, bool>)
        return parseBool(key, value);
    else if constexpr (std::is_same_v<T, std::uint64_t>)
        return parseU64(key, value);
    else {
        static_assert(std::is_same_v<T, std::string>);
        return value;
    }
}

template <typename T>
std::string
printAs(const T &value)
{
    if constexpr (std::is_same_v<T, double>)
        return formatDouble(value);
    else if constexpr (std::is_same_v<T, bool>)
        return value ? "true" : "false";
    else if constexpr (std::is_same_v<T, std::string>)
        return value;
    else
        return std::to_string(value);
}

/** The key for member @p field of SimConfig or one of its parts. */
template <typename T, typename Part>
KeyOps
member(T Part::*field)
{
    return KeyOps{
        [field](SimConfig &c, const std::string &k,
                const std::string &v) {
            partOf<Part>(c).*field = parseAs<T>(k, v);
        },
        [field](const SimConfig &c) {
            return printAs(partOf<Part>(c).*field);
        },
    };
}

/**
 * member() for an output path. Sinks fail fast at key-apply time:
 * the files are only written at the end of a run, and a typo'd
 * directory should not surface minutes into a sweep.
 */
template <typename Part>
KeyOps
pathMember(std::string Part::*field)
{
    KeyOps ops = member(field);
    ops.apply = [set = ops.apply](SimConfig &c, const std::string &k,
                                  const std::string &v) {
        if (!v.empty() && !pathWritable(v)) {
            fatal("config: key '", k, "' = '", v, "': directory '",
                  parentDir(v), "' does not exist or is not writable");
        }
        set(c, k, v);
    };
    return ops;
}

const std::map<std::string, KeyOps> &
keyTable()
{
    static const std::map<std::string, KeyOps> table{
        {"workload",
         {[](SimConfig &c, const std::string &k, const std::string &v) {
              c.workload = parseWorkload(k, v);
          },
          [](const SimConfig &c) {
              return std::string(workloadSetName(c.workload));
          }}},
        {"load", member(&SimConfig::load)},
        {"simTimeS", member(&SimConfig::simTimeS)},
        {"warmupS", member(&SimConfig::warmupS)},
        {"drainFactor", member(&SimConfig::drainFactor)},
        {"pmEpochS", member(&SimConfig::pmEpochS)},
        {"chipTauS", member(&SimConfig::chipTauS)},
        {"socketTauS", member(&SimConfig::socketTauS)},
        {"histTauS", member(&SimConfig::histTauS)},
        {"tLimitC", member(&SimConfig::tLimitC)},
        {"rIntCW", member(&SimConfig::rIntCW)},
        {"gatedFracTdp", member(&SimConfig::gatedFracTdp)},
        {"boostRefillRate", member(&SimConfig::boostRefillRate)},
        {"boostBurstS", member(&SimConfig::boostBurstS)},
        {"migrationEnabled", member(&SimConfig::migrationEnabled)},
        {"migrationIntervalS", member(&SimConfig::migrationIntervalS)},
        {"migrationCostS", member(&SimConfig::migrationCostS)},
        {"migrationMinRemainingS", member(&SimConfig::migrationMinRemainingS)},
        {"migrationMaxPerPass", member(&SimConfig::migrationMaxPerPass)},
        {"fanPowerW", member(&SimConfig::fanPowerW)},
        {"sensorNoiseC", member(&SimConfig::sensorNoiseC)},
        {"sensorQuantC", member(&SimConfig::sensorQuantC)},
        {"timelineSampleS", member(&SimConfig::timelineSampleS)},
        {"obs.tracePath", pathMember(&SimConfig::obsTracePath)},
        {"obs.timelinePath", pathMember(&SimConfig::obsTimelinePath)},
        {"warmStart", member(&SimConfig::warmStart)},
        {"seed", member(&SimConfig::seed)},
        {"topo.rows", member(&TopologySpec::rows)},
        {"topo.cartridgesPerRow", member(&TopologySpec::cartridgesPerRow)},
        {"topo.zonesPerCartridge", member(&TopologySpec::zonesPerCartridge)},
        {"topo.socketsPerZone", member(&TopologySpec::socketsPerZone)},
        {"topo.intraZoneSpacingInch",
         member(&TopologySpec::intraZoneSpacingInch)},
        {"topo.interCartridgeGapInch",
         member(&TopologySpec::interCartridgeGapInch)},
        {"topo.perSocketCfm", member(&TopologySpec::perSocketCfm)},
        {"topo.inletC", member(&TopologySpec::inletC)},
        {"fault.seed", member(&FaultConfig::seed)},
        {"fault.fanFailS", member(&FaultConfig::fanFailS)},
        {"fault.fanRecoverS", member(&FaultConfig::fanRecoverS)},
        {"fault.fanSpeedFrac", member(&FaultConfig::fanSpeedFrac)},
        {"fault.fanCount", member(&FaultConfig::fanCount)},
        {"fault.sensorStuckCount", member(&FaultConfig::sensorStuckCount)},
        {"fault.sensorStuckAtS", member(&FaultConfig::sensorStuckAtS)},
        {"fault.sensorNoisyCount", member(&FaultConfig::sensorNoisyCount)},
        {"fault.sensorNoiseSigmaC", member(&FaultConfig::sensorNoiseSigmaC)},
        {"fault.sensorNoisyAtS", member(&FaultConfig::sensorNoisyAtS)},
        {"fault.sensorDropoutCount", member(&FaultConfig::sensorDropoutCount)},
        {"fault.sensorDropoutAtS", member(&FaultConfig::sensorDropoutAtS)},
        {"fault.sensorDropoutDurS", member(&FaultConfig::sensorDropoutDurS)},
        {"fault.dropoutPolicy",
         {[](SimConfig &c, const std::string &, const std::string &v) {
              c.fault.dropoutPolicy = parseDropoutPolicy(v);
          },
          [](const SimConfig &c) {
              return std::string(
                  dropoutPolicyName(c.fault.dropoutPolicy));
          }}},
        {"fault.fallbackAmbientC", member(&FaultConfig::fallbackAmbientC)},
        {"fault.socketFailCount", member(&FaultConfig::socketFailCount)},
        {"fault.socketFailS", member(&FaultConfig::socketFailS)},
        {"fault.socketRecoverS", member(&FaultConfig::socketRecoverS)},
        {"fault.emergencyMarginC", member(&FaultConfig::emergencyMarginC)},
        {"fault.emergencySustainS", member(&FaultConfig::emergencySustainS)},
        {"fault.quarantineSustainS", member(&FaultConfig::quarantineSustainS)},
        {"fault.quarantineExitC", member(&FaultConfig::quarantineExitC)},
        {"fault.abortRunS", member(&FaultConfig::abortRunS)},
        {"fault.logPath", pathMember(&FaultConfig::logPath)},
        {"fleet.chassis",
         {[](SimConfig &c, const std::string &k, const std::string &v) {
              const int n = parseInt(k, v);
              if (n < 0)
                  fatal("config: key '", k, "' must be >= 0, got ",
                        n);
              c.fleet.chassis = static_cast<std::size_t>(n);
          },
          [](const SimConfig &c) {
              return std::to_string(c.fleet.chassis);
          }}},
        {"fleet.epochS", member(&FleetConfig::epochS)},
        {"fleet.dispatcher", member(&FleetConfig::dispatcher)},
        {"fleet.powerBudgetW", member(&FleetConfig::powerBudgetW)},
        {"fleet.seed", member(&FleetConfig::seed)},
        {"ckpt.path", pathMember(&SimConfig::ckptPath)},
        {"ckpt.everyS", member(&SimConfig::ckptEveryS)},
        {"coupling.mixFactor", member(&CouplingParams::mixFactor)},
        {"coupling.decayLengthInch", member(&CouplingParams::decayLengthInch)},
        {"coupling.wakeFactor", member(&CouplingParams::wakeFactor)},
        {"coupling.kappaLocal", member(&CouplingParams::kappaLocal)},
        {"coupling.verticalLeak", member(&CouplingParams::verticalLeak)},
    };
    return table;
}

/** Classic dynamic-programming Levenshtein distance. */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> prev(b.size() + 1);
    std::vector<std::size_t> cur(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t sub =
                prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

/**
 * " (did you mean 'X'?)" for the nearest known key within an edit
 * distance of 3, or "" when nothing plausible is close enough.
 */
std::string
suggestKey(const std::string &unknown)
{
    std::size_t best_dist = 4; // Suggest only within distance 3.
    std::string best;
    for (const auto &[key, ops] : keyTable()) {
        const std::size_t d = editDistance(unknown, key);
        if (d < best_dist) {
            best_dist = d;
            best = key;
        }
    }
    if (best.empty() || best_dist >= unknown.size())
        return "";
    return " (did you mean '" + best + "'?)";
}

} // namespace

void
applyConfigKey(SimConfig &config, const std::string &key,
               const std::string &value)
{
    const std::string k = trim(key);
    const auto it = keyTable().find(k);
    if (it == keyTable().end())
        fatal("config: unknown key '", k, "'", suggestKey(k));
    it->second.apply(config, k, trim(value));
}

void
loadConfig(SimConfig &config, std::istream &in)
{
    std::string line;
    int lineno = 0;
    std::map<std::string, int> first_seen;
    while (std::getline(in, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        const std::string body = trim(line);
        if (body.empty())
            continue;
        const auto eq = body.find('=');
        if (eq == std::string::npos)
            fatal("config: line ", lineno, " is not 'key = value': '",
                  body, "'");
        const std::string k = trim(body.substr(0, eq));
        const auto it = keyTable().find(k);
        if (it == keyTable().end()) {
            fatal("config: line ", lineno, ": unknown key '", k, "'",
                  suggestKey(k));
        }
        const auto [seen, fresh] = first_seen.emplace(k, lineno);
        if (!fresh) {
            fatal("config: line ", lineno, ": duplicate key '", k,
                  "' (first set at line ", seen->second, ")");
        }
        it->second.apply(config, k, trim(body.substr(eq + 1)));
    }
}

void
loadConfigFile(SimConfig &config, const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("config: cannot open '", path, "'");
    loadConfig(config, in);
}

std::string
saveConfig(const SimConfig &config)
{
    std::ostringstream os;
    os << "# densim simulation configuration\n";
    for (const auto &[key, ops] : keyTable())
        os << key << " = " << ops.print(config) << "\n";
    return os.str();
}

} // namespace densim

/**
 * @file
 * Minimal strict-JSON emission helpers for the observability layer.
 *
 * densim's exporters (metrics_io, the Chrome trace and fault log,
 * the timeline stream) hand-roll their JSON for zero dependencies, which
 * historically produced *invalid* documents: IEEE-754 non-finite
 * values streamed as bare `nan`/`inf`, which no JSON parser accepts.
 * Every number densim emits now goes through appendNumber(), which
 * maps non-finite values to `null` (the convention Chrome's
 * trace_event importer and pandas' read_json both accept), and every
 * string through appendString(), which applies RFC 8259 escaping.
 */

#ifndef DENSIM_OBS_JSON_HH
#define DENSIM_OBS_JSON_HH

#include <string>
#include <string_view>

namespace densim::obs::json {

/**
 * Append @p v to @p out as a strict-JSON number in the shortest form
 * that parses back to exactly @p v (std::to_chars), so emitted
 * metrics compare at full precision; NaN and +/-infinity become
 * `null`.
 */
void appendNumber(std::string &out, double v);

/** Append @p s to @p out as a quoted, RFC 8259-escaped string. */
void appendString(std::string &out, std::string_view s);

} // namespace densim::obs::json

#endif // DENSIM_OBS_JSON_HH

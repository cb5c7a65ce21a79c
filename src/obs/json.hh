/**
 * @file
 * Minimal strict-JSON emission and validation helpers for the
 * observability layer.
 *
 * densim's exporters (metrics_io, the trace sink, the timeline
 * stream) hand-roll their JSON for zero dependencies, which
 * historically produced *invalid* documents: IEEE-754 non-finite
 * values streamed as bare `nan`/`inf`, which no JSON parser accepts.
 * Every number densim emits now goes through appendNumber(), which
 * maps non-finite values to `null` (the convention Chrome's
 * trace_event importer and pandas' read_json both accept), and every
 * string through appendString(), which applies RFC 8259 escaping.
 *
 * validate() is a strict recursive-descent RFC 8259 parser used by
 * the test suite, so "it parses" is asserted in-process too, not only
 * by the Python parses in tools/check.sh's smoke runs.
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

/**
 * Strictly parse @p text as exactly one JSON document (RFC 8259: no
 * trailing garbage, no bare NaN/inf, no trailing commas, no
 * single-quoted strings). Returns true iff valid; on failure @p error
 * (if non-null) receives a one-line description with a byte offset.
 */
bool validate(std::string_view text, std::string *error = nullptr);

/**
 * Validate a JSON-lines stream: every non-empty line must be a valid
 * document. Returns the number of valid lines, or -1 on the first
 * invalid line (with @p error set as in validate()).
 */
long validateLines(std::string_view text, std::string *error = nullptr);

} // namespace densim::obs::json

#endif // DENSIM_OBS_JSON_HH

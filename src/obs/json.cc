#include "obs/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace densim::obs::json {

void
appendNumber(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    // Shortest form that parses back to the same double; 32 bytes
    // hold the longest ("-2.2250738585072014e-308" is 24).
    char buf[32];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, r.ptr);
}

void
appendString(std::string &out, std::string_view s)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

} // namespace densim::obs::json

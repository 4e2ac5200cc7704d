/**
 * @file
 * Minimal JSON formatting helpers for the telemetry exporters. confsim
 * only ever *writes* JSON (JSONL event streams, run manifests, span
 * traces), so a pair of escape/format functions is all that is needed
 * — no parser, no DOM, no dependency.
 */

#ifndef CONFSIM_OBS_JSON_H
#define CONFSIM_OBS_JSON_H

#include <cstdio>
#include <string>

namespace confsim {

/** Escape @p s for inclusion inside a JSON string literal. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** @return @p s quoted and escaped as a JSON string token. */
inline std::string
jsonString(const std::string &s)
{
    return "\"" + jsonEscape(s) + "\"";
}

/**
 * Format a double as a JSON number: shortest round-trippable decimal,
 * with non-finite values (not representable in JSON) mapped to null.
 */
inline std::string
jsonNumber(double value)
{
    if (!(value == value) || value > 1.7976931348623157e308 ||
        value < -1.7976931348623157e308) {
        return "null";
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    // Prefer the shorter %.15g form when it round-trips exactly.
    char shorter[40];
    std::snprintf(shorter, sizeof shorter, "%.15g", value);
    double back = 0.0;
    std::sscanf(shorter, "%lf", &back);
    return back == value ? shorter : buf;
}

} // namespace confsim

#endif // CONFSIM_OBS_JSON_H

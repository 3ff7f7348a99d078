// Token parsing and response formatting for the serving line protocol.
//
// The command grammar lives in fleet/protocol.h (fleet::FleetLineSession,
// the one protocol front end); this module holds the pieces it is built
// from, as pure functions so they unit-test without sockets or threads:
//
//   * token parsers that reject non-finite and malformed numbers before
//     any tensor is built;
//   * the response lines a profile answers with:
//       forecast ok=1 degraded=0 n=<N> u=<U> <N*U*F floats, sensor-major>
//       forecast ok=0 degraded=<0|1> err=<reason-with-underscores>
//       stats submitted=... completed=... shed=... batches=... mean_batch=...
//             p50_us=... p95_us=... p99_us=... sc_...=... (single line)
//       err <reason-with-underscores>

#ifndef STWA_SERVE_PROTOCOL_H_
#define STWA_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/batching_queue.h"
#include "serve/server.h"

namespace stwa {
namespace serve {

/// Parses a whole token as a finite float. Rejects trailing junk, `nan`,
/// `inf` and values that overflow to infinity (e.g. `1e39`): a non-finite
/// observation would poison a stream's window.
bool ParseFloatToken(const std::string& token, float* out);

/// Parses a whole token as a base-10 integer.
bool ParseIntToken(const std::string& token, int64_t* out);

/// Parses tokens[first..] with ParseFloatToken into *values. On a bad
/// token returns false with the reason in *err.
bool ParseValueTokens(const std::vector<std::string>& tokens, size_t first,
                      std::vector<float>* values, std::string* err);

/// Formats a microsecond figure for stats lines ("%.1f").
std::string FormatMicros(double micros);

/// Formats a forecast response line. `n`/`u`/`f` describe the forecast
/// layout; ignored when the response carries no forecast.
std::string FormatForecastResponse(const Response& response, int64_t n,
                                   int64_t u, int64_t f);

/// Formats the stats line.
std::string FormatStatsResponse(const ServerStats& stats);

/// Formats an error line.
std::string FormatErrorResponse(const std::string& reason);

}  // namespace serve
}  // namespace stwa

#endif  // STWA_SERVE_PROTOCOL_H_

// Line-oriented serving protocol (tools/stwa_serve, stdin or TCP).
//
// Requests, one per line, whitespace-separated:
//   obs v_0 v_1 ... v_{N*F-1}   push one timestep for every sensor
//   obs1 <sensor> v_0 ... v_{F-1}  push one observation for one sensor
//   forecast                    request an H-step forecast
//   stats                       serving statistics
//   quit                        close the connection
//
// Responses, one per line:
//   ok                          observation accepted
//   forecast ok=1 degraded=0 n=<N> u=<U> <N*U*F floats, sensor-major>
//   forecast ok=0 degraded=<0|1> err=<reason-with-underscores>
//   stats submitted=... completed=... shed=... batches=... mean_batch=...
//         protocol_errors=... p50_us=... p95_us=... p99_us=... (single line)
//   err <reason>                parse or protocol error
//   bye                         reply to quit
//
// Parsing and formatting are pure functions so they unit-test without
// sockets or threads. LineSession drives one client's command stream
// against a Server: every malformed line — bad or non-finite floats,
// out-of-range sensor indices, wrong value counts — is answered with an
// `err` line and counted in the server stats; nothing a client writes can
// reach a worker CHECK.

#ifndef STWA_SERVE_PROTOCOL_H_
#define STWA_SERVE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/batching_queue.h"
#include "serve/server.h"
#include "serve/stream_state.h"

namespace stwa {
namespace serve {

/// Parsed request line.
struct Command {
  enum class Kind { kObs, kObsSensor, kForecast, kStats, kQuit, kInvalid };
  Kind kind = Kind::kInvalid;
  /// Sensor index for kObsSensor.
  int64_t sensor = -1;
  /// Observation values for kObs / kObsSensor.
  std::vector<float> values;
  /// Parse failure reason for kInvalid.
  std::string error;
};

/// Parses a whole token as a finite float. Rejects trailing junk, `nan`,
/// `inf` and values that overflow to infinity (e.g. `1e39`): a non-finite
/// observation would poison a stream's window. Shared by the serve and
/// fleet protocols.
bool ParseFloatToken(const std::string& token, float* out);

/// Parses a whole token as a base-10 integer.
bool ParseIntToken(const std::string& token, int64_t* out);

/// Parses tokens[first..] with ParseFloatToken into *values. On a bad
/// token returns false with the reason in *err.
bool ParseValueTokens(const std::vector<std::string>& tokens, size_t first,
                      std::vector<float>* values, std::string* err);

/// Formats a microsecond figure for stats lines ("%.1f").
std::string FormatMicros(double micros);

/// Parses one request line (leading/trailing whitespace ignored; empty
/// lines and lines starting with '#' parse as kInvalid with an empty
/// error, meaning "skip").
Command ParseCommand(const std::string& line);

/// Formats a forecast response line. `n`/`u`/`f` describe the forecast
/// layout; ignored when the response carries no forecast.
std::string FormatForecastResponse(const Response& response, int64_t n,
                                   int64_t u, int64_t f);

/// Formats the stats line.
std::string FormatStatsResponse(const ServerStats& stats);

/// Formats an error line.
std::string FormatErrorResponse(const std::string& reason);

/// Validates a parsed obs/obs1 command against the serving dimensions.
/// Returns the error reason, or nullopt when the command is well-formed.
/// Centralised here so every transport rejects out-of-range sensors and
/// wrong value counts the same way — before any tensor is built.
std::optional<std::string> ValidateCommand(const Command& cmd,
                                           int64_t num_sensors,
                                           int64_t features);

/// One client's protocol state: a StreamState warmed by obs commands plus
/// the response logic for every command. Both stwa_serve transports
/// (stdin and TCP) and the fleet node run one LineSession per connection.
/// Not thread-safe; each connection owns its session.
class LineSession {
 public:
  /// Binds to `server` (not owned; must outlive the session). Stream
  /// dimensions come from the server's checkpoint.
  explicit LineSession(Server& server);

  /// Handles one request line. Returns the response line to write, or
  /// nullopt for blank/comment lines. Sets *quit on the quit command.
  /// Never throws on malformed input — bad lines produce `err` responses
  /// and increment protocol_errors().
  std::optional<std::string> Handle(const std::string& line, bool* quit);

  /// Lines rejected as malformed so far (parse or validation failures).
  int64_t protocol_errors() const { return protocol_errors_; }

  StreamState& state() { return state_; }

  /// Process-unique stream id this session submits under (stream cache
  /// key; see serve/stream_cache.h).
  int64_t stream_id() const { return stream_id_; }

 private:
  Server& server_;
  StreamState state_;
  int64_t stream_id_ = -1;
  int64_t protocol_errors_ = 0;
};

}  // namespace serve
}  // namespace stwa

#endif  // STWA_SERVE_PROTOCOL_H_

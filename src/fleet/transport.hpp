// Non-blocking request/response transport for the distributor.
//
// The fleet needs to hold several requests in flight at once from a single
// worker thread (a primary plus its hedge) and take whichever answers
// first. A PendingRequest is one request on one connection, driven through
// a tiny state machine: a blocking send (after a blocking connect when no
// idle connection was handed in; cheap against a live listener, fails fast
// against a dead one), then non-blocking reads of the 4-byte length header
// and the payload. wait_any() multiplexes any number of them with poll(2).
//
// Connections are kept alive across requests: the serve protocol carries
// any number of request/response pairs per connection, so the fleet keeps
// a small stack of idle connections per shard (fleet.hpp) and hands one in
// here when it has one. A connection is reusable only once a response has
// arrived whole with nothing after it; the fleet decides from the payload
// whether it goes back. The fleet closes the connection on every other
// outcome and empties the shard's idle stack on a transport failure, so
// every retry after a failure starts on a fresh socket and a half-dead
// peer can never poison it. The determinism contract lives entirely in the
// payloads, so which connection carried a request never shows in a result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace mrsc::fleet {

/// One shard address.
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// One request in flight on one connection.
class PendingRequest {
 public:
  enum class State : std::uint8_t { kPending, kDone, kFailed };

  /// Sends `request` on `idle` when it is a valid connection, else on a
  /// fresh connection to `endpoint`. A refused/failed connect or torn send
  /// lands in kFailed rather than throwing — callers treat it like any
  /// other transport failure.
  PendingRequest(const Endpoint& endpoint, const std::string& request,
                 serve::Socket idle = {});

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] int fd() const { return socket_.fd(); }
  /// True when this request opened its own connection.
  [[nodiscard]] bool connected() const { return connected_; }
  /// True once any byte of the response has arrived.
  [[nodiscard]] bool received() const { return !buffer_.empty(); }

  /// Non-blocking read step; call when poll reports the fd readable (or
  /// speculatively — it returns on EAGAIN). Moves kPending → kDone once a
  /// full frame has arrived, → kFailed on EOF mid-frame, a socket error,
  /// or a garbage/oversized length prefix.
  void pump();

  /// The response payload; only meaningful in kDone.
  [[nodiscard]] const std::string& response() const { return response_; }
  /// The failure description; only meaningful in kFailed.
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Hands the connection over for reuse: valid only in kDone when the
  /// peer sent exactly one frame; an invalid Socket otherwise.
  [[nodiscard]] serve::Socket release();

 private:
  void fail(std::string why);

  serve::Socket socket_;
  State state_ = State::kPending;
  bool connected_ = false;
  std::string buffer_;  ///< raw bytes received so far (header + payload)
  std::uint32_t expected_ = 0;
  bool have_header_ = false;
  std::string response_;
  std::string error_;
};

/// Blocks until at least one still-pending request becomes readable (then
/// pumps every readable one) or `timeout_ms` elapses. No-op when nothing
/// is pending.
void wait_any(const std::vector<PendingRequest*>& requests,
              double timeout_ms);

}  // namespace mrsc::fleet

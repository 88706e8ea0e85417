#pragma once
// Client side of the synthesis server protocol: streams a JSONL manifest
// to a live `lowbist serve` verbatim and copies every response line to an
// output stream.  `lowbist client`, the server tests and the load
// generator all drive the server through this.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace lbist {

/// Response tallies from one client session.
struct ClientSummary {
  int responses = 0;  ///< lines received (work replies + query replies)
  int ok = 0;         ///< lines with status "ok"
  int errors = 0;     ///< lines with status "error" (includes "overloaded")
};

/// Connects to host:port, sends `manifest` as-is (a trailing newline is
/// added when missing), half-closes the write side, and copies response
/// lines to `out` until the server finishes draining and closes.  Sending
/// and receiving run concurrently so neither side's socket buffer can
/// deadlock a large manifest.  Throws Error when the connection fails.
ClientSummary run_client(const std::string& host, std::uint16_t port,
                         std::string_view manifest, std::ostream& out);

/// Splits "host:port"; throws Error on malformed input.
void parse_host_port(const std::string& spec, std::string* host,
                     std::uint16_t* port);

}  // namespace lbist

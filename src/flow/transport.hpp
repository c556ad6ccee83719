// Transport layer for the serving daemon: the socket plumbing that used
// to live inside service.cpp, abstracted so FlowService can accept the
// SAME "rtflow-serve 1" line protocol over either a Unix-domain socket
// (the PR-8 local transport) or a TCP endpoint (`serve --tcp HOST:PORT`)
// — the protocol was designed to wrap, and nothing above this layer
// knows which transport carried the bytes.
//
// Three pieces:
//
//  1. Endpoint: where to connect/listen. A client holds exactly one —
//     either a socket path or a HOST:PORT pair — and `connect_endpoint`
//     dials it. `parse_tcp_endpoint` validates "HOST:PORT" strings with
//     loud Errors (port range, missing colon), so a malformed `--tcp`
//     value is a clean usage failure, never an abort.
//
//  2. Listener: a bound, listening socket plus the bookkeeping its
//     owner needs (the path to unlink for Unix, the actual bound port
//     for TCP — `--tcp 127.0.0.1:0` picks an ephemeral port, which is
//     what the tests use). Construction throws rtcad::Error on EVERY
//     failure path (path too long, address in use, privileged port):
//     bind problems are recoverable configuration errors by contract.
//
//  3. Stream helpers shared by both halves of the protocol:
//     send_all/send_line (EINTR-safe, MSG_NOSIGNAL so a vanished peer
//     can never SIGPIPE the daemon) and SocketReader (buffered
//     LF-terminated lines plus exact-count raw reads for framed
//     payloads).
#pragma once

#include <atomic>
#include <cstddef>
#include <string>

namespace rtcad {

/// One dialable address: a Unix-domain socket path or a TCP host:port.
/// Exactly one of the factory forms applies; `describe()` is the label
/// error messages use.
struct Endpoint {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;  ///< kUnix: the socket path
  std::string host;  ///< kTcp: numeric or named host
  int port = 0;      ///< kTcp: 1..65535

  static Endpoint unix_path(std::string p) {
    Endpoint e;
    e.kind = Kind::kUnix;
    e.path = std::move(p);
    return e;
  }
  static Endpoint tcp(std::string host, int port) {
    Endpoint e;
    e.kind = Kind::kTcp;
    e.host = std::move(host);
    e.port = port;
    return e;
  }
  std::string describe() const;
};

/// Parse "HOST:PORT" (the `--tcp` / `--connect` syntax). The LAST colon
/// splits host from port so IPv6 literals like "::1:8080" keep working;
/// an empty host means "every interface" for listeners ("0.0.0.0").
/// Throws rtcad::Error naming the defect on a malformed value — ports
/// outside 0..65535, a missing colon, a non-numeric port. Port 0 is
/// accepted (listeners resolve it to an ephemeral port).
Endpoint parse_tcp_endpoint(const std::string& spec);

/// A bound, listening server socket of either transport. Move-only
/// handle; the owner drives the lifecycle (`shutdown_and_close` pops
/// concurrent accept() calls out with an error, which is how the
/// service's stop() unblocks its acceptor threads).
class Listener {
 public:
  Listener() = default;
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener();  ///< closes; unlinks a Unix socket path

  int fd() const { return fd_.load(std::memory_order_relaxed); }
  bool valid() const { return fd() >= 0; }
  /// Human label: "unix:<path>" or "tcp:<host>:<port>" (the RESOLVED
  /// port for ephemeral binds).
  const std::string& where() const { return where_; }
  /// TCP: the actual bound port (resolves port 0); 0 for Unix.
  int tcp_port() const { return tcp_port_; }

  /// Accept one connection. Returns the connected fd, or -1 once the
  /// listener was shut down. Transient per-connection failures
  /// (ECONNABORTED, EMFILE/ENFILE pressure) are retried internally —
  /// an overloaded daemon must shed the one connection, not its
  /// listener; descriptor exhaustion is reported once per burst on
  /// stderr and backed off, never fatal.
  int accept_connection();

  /// Unblock every accept_connection() and release the socket.
  /// Idempotent; the Unix socket path is unlinked.
  void shutdown_and_close();

 private:
  friend Listener listen_unix(const std::string& path);
  friend Listener listen_tcp(const Endpoint& ep);

  // Atomic because the owner's stop() path shuts the listener down while
  // acceptor threads are blocked in accept_connection() on the same fd.
  std::atomic<int> fd_{-1};
  std::string where_;
  std::string unix_path_;  // non-empty: unlink on close
  int tcp_port_ = 0;
};

/// Bind + listen on a Unix-domain socket path. The caller owns the
/// stale-vs-live policy (the service probes before calling this);
/// here an existing path is an EADDRINUSE Error like any other bind
/// failure. Throws rtcad::Error on every failure path.
Listener listen_unix(const std::string& path);

/// Bind + listen on a TCP endpoint (kTcp only). Port 0 binds an
/// ephemeral port, readable back via Listener::tcp_port(). Throws
/// rtcad::Error on resolve/bind/listen failure — a TCP bind failure is
/// a clean, recoverable configuration error, never an abort.
Listener listen_tcp(const Endpoint& ep);

/// Dial an endpooint of either kind; returns the connected fd. Throws
/// rtcad::Error ("cannot connect to ...") on failure — connection
/// refused included, which is what the submit client's retry loop
/// catches.
int connect_endpoint(const Endpoint& ep);

/// Write all of `data`; returns false once the peer is gone
/// (EPIPE/reset). MSG_NOSIGNAL: a disconnected peer must never SIGPIPE
/// the process.
bool send_all(int fd, const char* data, std::size_t len);

/// `line` + '\n' via send_all.
bool send_line(int fd, const std::string& line);

/// Buffered reader over a connected socket: LF-terminated lines plus
/// exact-count raw reads (for framed spec/record payloads).
class SocketReader {
 public:
  /// Longest line read_line() accepts, newline excluded. Far above any
  /// header or response line; spec and record payloads are framed by byte
  /// counts and never read as lines.
  static constexpr std::size_t kMaxLineBytes = 64 * 1024;
  /// Most framed payload bytes one request may carry, summed over its
  /// spec payloads. The daemon refuses a size line past what is left
  /// before it reads the payload, so one request buffers at most this.
  static constexpr std::size_t kMaxPayloadBytes = std::size_t{16} << 20;

  explicit SocketReader(int fd) : fd_(fd) {}

  /// Next line without its newline; false on EOF/error before a newline,
  /// or once more than kMaxLineBytes arrive without one (then
  /// line_too_long() is true), so a peer cannot grow the buffer without
  /// bound.
  bool read_line(std::string* line);
  bool line_too_long() const { return line_too_long_; }

  /// Exactly `n` raw bytes; false on early EOF.
  bool read_exact(std::string* out, std::size_t n);

 private:
  bool fill();

  int fd_;
  std::string buf_;
  std::size_t scan_ = 0;
  bool line_too_long_ = false;
};

}  // namespace rtcad

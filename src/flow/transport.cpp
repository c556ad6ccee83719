#include "flow/transport.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace rtcad {

namespace {

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw Error(strprintf("socket path too long (%zu bytes, max %zu): %s",
                          path.size(), sizeof(addr.sun_path) - 1,
                          path.c_str()));
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

// getaddrinfo wrapper shared by the TCP listen and connect paths.
// Numeric service, passive for listeners. The caller owns the result.
addrinfo* resolve_tcp(const Endpoint& ep, bool passive) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV | (passive ? AI_PASSIVE : 0);
  const std::string port = std::to_string(ep.port);
  // An empty host means "all interfaces" for listeners (AI_PASSIVE +
  // nullptr node) and loopback for clients.
  const char* node = ep.host.empty()
                         ? (passive ? nullptr : "127.0.0.1")
                         : ep.host.c_str();
  addrinfo* res = nullptr;
  int rc = ::getaddrinfo(node, port.c_str(), &hints, &res);
  if (rc != 0) {
    throw Error(strprintf("cannot resolve %s: %s", ep.describe().c_str(),
                          ::gai_strerror(rc)));
  }
  return res;
}

int bound_tcp_port(int fd) {
  sockaddr_storage ss{};
  socklen_t len = sizeof(ss);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&ss), &len) != 0)
    return 0;
  if (ss.ss_family == AF_INET)
    return ntohs(reinterpret_cast<sockaddr_in*>(&ss)->sin_port);
  if (ss.ss_family == AF_INET6)
    return ntohs(reinterpret_cast<sockaddr_in6*>(&ss)->sin6_port);
  return 0;
}

}  // namespace

std::string Endpoint::describe() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return strprintf("tcp:%s:%d", host.empty() ? "*" : host.c_str(), port);
}

Endpoint parse_tcp_endpoint(const std::string& spec) {
  // The LAST colon splits host from port, so bare-IPv6 forms like
  // "::1:9000" parse as host "::1". Bracketed "[::1]:9000" also works.
  auto colon = spec.rfind(':');
  if (colon == std::string::npos) {
    throw Error(strprintf(
        "bad TCP endpoint '%s': expected HOST:PORT", spec.c_str()));
  }
  std::string host = spec.substr(0, colon);
  std::string port_text = spec.substr(colon + 1);
  if (host.size() >= 2 && host.front() == '[' && host.back() == ']')
    host = host.substr(1, host.size() - 2);
  if (port_text.empty() ||
      port_text.find_first_not_of("0123456789") != std::string::npos) {
    throw Error(strprintf("bad TCP endpoint '%s': port '%s' is not a number",
                          spec.c_str(), port_text.c_str()));
  }
  long port = std::strtol(port_text.c_str(), nullptr, 10);
  if (port < 0 || port > 65535) {
    throw Error(strprintf("bad TCP endpoint '%s': port %ld out of range 0..65535",
                          spec.c_str(), port));
  }
  return Endpoint::tcp(std::move(host), static_cast<int>(port));
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_.exchange(-1)),
      where_(std::move(other.where_)),
      unix_path_(std::move(other.unix_path_)),
      tcp_port_(other.tcp_port_) {
  other.unix_path_.clear();
  other.tcp_port_ = 0;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    shutdown_and_close();
    fd_.store(other.fd_.exchange(-1));
    where_ = std::move(other.where_);
    unix_path_ = std::move(other.unix_path_);
    tcp_port_ = other.tcp_port_;
    other.unix_path_.clear();
    other.tcp_port_ = 0;
  }
  return *this;
}

Listener::~Listener() { shutdown_and_close(); }

int Listener::accept_connection() {
  int fd = fd_.load(std::memory_order_relaxed);
  if (fd < 0) return -1;
  for (;;) {
    int conn = ::accept(fd, nullptr, nullptr);
    if (conn >= 0) return conn;
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (errno == EMFILE || errno == ENFILE) {
      // Descriptor exhaustion: shedding this connection attempt is
      // recoverable — the listener must survive the burst. Report and
      // back off briefly so we don't spin while the table is full.
      std::fprintf(stderr,
                   "rtflow-serve: accept on %s: out of descriptors (%s); "
                   "backing off\n",
                   where_.c_str(), std::strerror(errno));
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    return -1;  // listener shut down (EBADF/EINVAL) or unrecoverable
  }
}

void Listener::shutdown_and_close() {
  int fd = fd_.exchange(-1);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    close_fd(fd);
  }
  if (!unix_path_.empty()) {
    ::unlink(unix_path_.c_str());
    unix_path_.clear();
  }
}

Listener listen_unix(const std::string& path) {
  sockaddr_un addr = make_unix_addr(path);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0)
    throw Error(strprintf("cannot create socket: %s", std::strerror(errno)));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int err = errno;
    close_fd(fd);
    throw Error(strprintf("cannot bind %s: %s", path.c_str(),
                          std::strerror(err)));
  }
  if (::listen(fd, 64) != 0) {
    int err = errno;
    close_fd(fd);
    ::unlink(path.c_str());
    throw Error(strprintf("cannot listen on %s: %s", path.c_str(),
                          std::strerror(err)));
  }
  Listener l;
  l.fd_ = fd;
  l.where_ = "unix:" + path;
  l.unix_path_ = path;
  return l;
}

Listener listen_tcp(const Endpoint& ep) {
  RTCAD_EXPECTS(ep.kind == Endpoint::Kind::kTcp);
  addrinfo* res = resolve_tcp(ep, /*passive=*/true);
  int fd = -1;
  std::string last_err = "no addresses resolved";
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_err = strprintf("socket: %s", std::strerror(errno));
      continue;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0) {
      last_err = strprintf("bind: %s", std::strerror(errno));
      close_fd(fd);
      fd = -1;
      continue;
    }
    if (::listen(fd, 64) != 0) {
      last_err = strprintf("listen: %s", std::strerror(errno));
      close_fd(fd);
      fd = -1;
      continue;
    }
    break;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    // The contract satellite: a TCP bind failure (port in use,
    // privileged port, bad interface) is a clean recoverable Error the
    // CLI turns into exit 1 — never an abort.
    throw Error(strprintf("cannot listen on %s: %s", ep.describe().c_str(),
                          last_err.c_str()));
  }
  Listener l;
  l.fd_ = fd;
  l.tcp_port_ = bound_tcp_port(fd);
  l.where_ = strprintf("tcp:%s:%d", ep.host.empty() ? "*" : ep.host.c_str(),
                       l.tcp_port_);
  return l;
}

int connect_endpoint(const Endpoint& ep) {
  if (ep.kind == Endpoint::Kind::kUnix) {
    sockaddr_un addr = make_unix_addr(ep.path);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
      throw Error(strprintf("cannot create socket: %s", std::strerror(errno)));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      int err = errno;
      close_fd(fd);
      throw Error(strprintf("cannot connect to %s: %s", ep.path.c_str(),
                            std::strerror(err)));
    }
    return fd;
  }
  addrinfo* res = resolve_tcp(ep, /*passive=*/false);
  int fd = -1;
  std::string last_err = "no addresses resolved";
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_err = strprintf("socket: %s", std::strerror(errno));
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) != 0) {
      last_err = std::strerror(errno);
      close_fd(fd);
      fd = -1;
      continue;
    }
    break;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    throw Error(strprintf("cannot connect to %s: %s", ep.describe().c_str(),
                          last_err.c_str()));
  }
  return fd;
}

bool send_all(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool send_line(int fd, const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  return send_all(fd, framed.data(), framed.size());
}

bool SocketReader::fill() {
  char chunk[4096];
  for (;;) {
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf_.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF or hard error
  }
}

bool SocketReader::read_line(std::string* line) {
  for (;;) {
    auto nl = buf_.find('\n', scan_);
    if (nl != std::string::npos && nl <= kMaxLineBytes) {
      line->assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      scan_ = 0;
      return true;
    }
    // The buffer starts at the line being read, so past the bound it can
    // only hold an over-long line.
    if (nl != std::string::npos || buf_.size() > kMaxLineBytes) {
      line_too_long_ = true;
      return false;
    }
    scan_ = buf_.size();
    if (!fill()) return false;
  }
}

bool SocketReader::read_exact(std::string* out, std::size_t n) {
  while (buf_.size() < n) {
    scan_ = buf_.size();
    if (!fill()) return false;
  }
  out->assign(buf_, 0, n);
  buf_.erase(0, n);
  scan_ = 0;
  return true;
}

}  // namespace rtcad

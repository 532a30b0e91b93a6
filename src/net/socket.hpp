// Socket helpers shared by the fd-backed transports (tcp.cpp: TCP and
// loopback; udp.cpp: UDP). Internal to src/net: error strings carry the
// transport's name ("tcp", "udp", "loopback") as their prefix.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>

namespace aesip::net::detail {

[[noreturn]] inline void throw_errno(const char* proto, const std::string& what) {
  throw std::runtime_error(std::string(proto) + ": " + what + ": " + std::strerror(errno));
}

inline void set_nonblocking(const char* proto, int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw_errno(proto, "fcntl(O_NONBLOCK)");
}

/// "host:port" -> sockaddr_in. Host may be empty ("listen on any") or a
/// dotted quad; name resolution is out of scope for this layer.
inline sockaddr_in parse_addr(const char* proto, const std::string& address, bool for_listen) {
  const auto colon = address.rfind(':');
  if (colon == std::string::npos)
    throw std::runtime_error(std::string(proto) + ": address must be host:port, got '" +
                             address + "'");
  const std::string host = address.substr(0, colon);
  const int port = std::stoi(address.substr(colon + 1));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  if (host.empty() || host == "*") {
    sa.sin_addr.s_addr = for_listen ? htonl(INADDR_ANY) : htonl(INADDR_LOOPBACK);
  } else if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
    throw std::runtime_error(std::string(proto) + ": cannot parse host '" + host +
                             "' (IPv4 dotted quad)");
  }
  return sa;
}

inline std::string addr_to_string(const sockaddr_in& sa) {
  char host[INET_ADDRSTRLEN] = {};
  ::inet_ntop(AF_INET, &sa.sin_addr, host, sizeof host);
  return std::string(host) + ":" + std::to_string(ntohs(sa.sin_port));
}

}  // namespace aesip::net::detail

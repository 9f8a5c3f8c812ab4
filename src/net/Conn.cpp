//===- net/Conn.cpp - Line-oriented socket connection ---------------------===//

#include "net/Conn.h"

#include "support/Decimal.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace cai {
namespace net {

bool parseHostPort(const std::string &Spec, std::string *Host,
                   uint16_t *Port) {
  size_t Colon = Spec.rfind(':');
  if (Colon == std::string::npos)
    return false;
  std::string H = Spec.substr(0, Colon);
  if (!parseDecimal(std::string_view(Spec).substr(Colon + 1), *Port))
    return false;
  *Host = H.empty() ? std::string("127.0.0.1") : H;
  return true;
}

Conn::Conn(Conn &&O) noexcept
    : Fd(std::exchange(O.Fd, -1)), Buf(std::move(O.Buf)),
      SawEof(O.SawEof), MaxLineBytes(O.MaxLineBytes) {}

Conn &Conn::operator=(Conn &&O) noexcept {
  if (this != &O) {
    close();
    Fd = std::exchange(O.Fd, -1);
    Buf = std::move(O.Buf);
    SawEof = O.SawEof;
    MaxLineBytes = O.MaxLineBytes;
  }
  return *this;
}

Conn Conn::connectTo(const std::string &Host, uint16_t Port,
                     std::string *Error) {
  struct addrinfo Hints = {};
  Hints.ai_family = AF_INET;
  Hints.ai_socktype = SOCK_STREAM;
  struct addrinfo *Res = nullptr;
  std::string PortStr = std::to_string(Port);
  int Rc = ::getaddrinfo(Host.c_str(), PortStr.c_str(), &Hints, &Res);
  if (Rc != 0) {
    if (Error)
      *Error = "cannot resolve " + Host + ": " + ::gai_strerror(Rc);
    return Conn();
  }
  int Fd = -1;
  for (struct addrinfo *A = Res; A; A = A->ai_next) {
    Fd = ::socket(A->ai_family, A->ai_socktype | SOCK_CLOEXEC, A->ai_protocol);
    if (Fd < 0)
      continue;
    if (::connect(Fd, A->ai_addr, A->ai_addrlen) == 0)
      break;
    ::close(Fd);
    Fd = -1;
  }
  ::freeaddrinfo(Res);
  if (Fd < 0) {
    if (Error)
      *Error = "cannot connect to " + Host + ":" + PortStr + ": " +
               std::strerror(errno);
    return Conn();
  }
  // The protocol is request/response lines; latency beats batching.
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return Conn(Fd);
}

void Conn::setReadTimeoutMs(unsigned Ms) {
  struct timeval Tv;
  Tv.tv_sec = Ms / 1000;
  Tv.tv_usec = (Ms % 1000) * 1000;
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
}

Conn::ReadStatus Conn::readLine(std::string *Line) {
  for (;;) {
    size_t Nl = Buf.find('\n');
    if (Nl != std::string::npos) {
      size_t End = Nl;
      if (End > 0 && Buf[End - 1] == '\r')
        --End;
      Line->assign(Buf, 0, End);
      Buf.erase(0, Nl + 1);
      return ReadStatus::Line;
    }
    if (MaxLineBytes && Buf.size() > MaxLineBytes)
      return ReadStatus::TooLong;
    if (SawEof) {
      if (!Buf.empty()) {
        *Line = std::move(Buf);
        Buf.clear();
        return ReadStatus::Line;
      }
      return ReadStatus::Eof;
    }
    char Chunk[65536];
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N > 0) {
      Buf.append(Chunk, size_t(N));
      continue;
    }
    if (N == 0) {
      SawEof = true;
      continue; // Deliver any unterminated tail, then Eof.
    }
    if (errno == EINTR)
      return ReadStatus::Interrupted;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return ReadStatus::Timeout;
    return ReadStatus::Error;
  }
}

bool Conn::writeAll(const std::string &Data) {
  const char *P = Data.data();
  size_t Size = Data.size();
  while (Size) {
    ssize_t N = ::write(Fd, P, Size);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += N;
    Size -= size_t(N);
  }
  return true;
}

bool Conn::writeLine(const std::string &Data) {
  return writeAll(Data + "\n");
}

void Conn::shutdownBoth() {
  if (Fd >= 0)
    ::shutdown(Fd, SHUT_RDWR);
}

void Conn::close() {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
  Buf.clear();
  SawEof = false;
}

} // namespace net
} // namespace cai

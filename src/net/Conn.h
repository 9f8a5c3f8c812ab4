//===- net/Conn.h - Line-oriented socket connection -------------*- C++ -*-===//
///
/// \file
/// One side of a TCP connection carrying the service's JSON-lines
/// protocol: a buffered line reader with a per-read timeout and a
/// max-line bound, plus a retrying whole-buffer writer.  Deliberately
/// blocking -- the service's concurrency lives in the scheduler's worker
/// pool, not in the transport, so the transport stays simple enough to
/// reason about byte-for-byte (the stdio-vs-TCP determinism test depends
/// on the framing being nothing but lines).
///
/// The timeout and line bound are the connection-level analogues of the
/// scheduler's per-job isolation: a stalled or hostile peer costs its own
/// connection a timeout or a too-long error, never the process.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_NET_CONN_H
#define CAI_NET_CONN_H

#include <cstdint>
#include <string>

namespace cai {
namespace net {

/// Splits "HOST:PORT" (host may be empty -> 127.0.0.1).  Returns false on
/// a missing, non-numeric or out-of-range port.
bool parseHostPort(const std::string &Spec, std::string *Host,
                   uint16_t *Port);

class Conn {
public:
  enum class ReadStatus : uint8_t {
    Line,        ///< One line delivered (terminator stripped).
    Eof,         ///< Peer closed; no more data.
    Timeout,     ///< No data within the read timeout.
    TooLong,     ///< Line exceeded the max-line bound; connection unusable.
    Interrupted, ///< read() hit EINTR (a signal; caller checks its flag).
    Error,       ///< Any other socket error.
  };

  Conn() = default;
  /// Takes ownership of \p Fd.
  explicit Conn(int Fd) : Fd(Fd) {}
  ~Conn() { close(); }

  Conn(Conn &&O) noexcept;
  Conn &operator=(Conn &&O) noexcept;
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;

  /// Connects to HOST:PORT (numeric host or resolvable name).  Returns an
  /// invalid Conn and sets \p Error on failure.
  static Conn connectTo(const std::string &Host, uint16_t Port,
                        std::string *Error);

  bool valid() const { return Fd >= 0; }
  int fd() const { return Fd; }

  /// Applies SO_RCVTIMEO; 0 disables the timeout.
  void setReadTimeoutMs(unsigned Ms);

  /// Caps one line's length (terminator excluded); longer input returns
  /// ReadStatus::TooLong.  0 = unlimited.
  void setMaxLineBytes(size_t N) { MaxLineBytes = N; }

  /// Reads one '\n'-terminated line into \p Line ('\n' and a preceding
  /// '\r' stripped).  At EOF an unterminated final line is still
  /// delivered once (getline semantics), then Eof.
  ReadStatus readLine(std::string *Line);

  /// Writes all of \p Data (retrying short writes); false on error.  The
  /// caller is expected to have ignored SIGPIPE process-wide.
  bool writeAll(const std::string &Data);

  /// Convenience: Data + '\n' in one write.
  bool writeLine(const std::string &Data);

  /// shutdown(2) both directions -- wakes a reader blocked in another
  /// thread (the listener's shutdown path); the fd stays owned.
  void shutdownBoth();

  void close();

private:
  int Fd = -1;
  std::string Buf;     ///< Bytes read but not yet returned.
  bool SawEof = false;
  size_t MaxLineBytes = 0;
};

} // namespace net
} // namespace cai

#endif // CAI_NET_CONN_H

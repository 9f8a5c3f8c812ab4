//===- support/TextIO.h - File reads and JSON string literals ---*- C++ -*-===//
///
/// \file
/// The one whole-file reader behind every tool that takes a program or a
/// baseline by path, and the one JSON string writer behind the wire
/// format, the trace, the event log and the metrics export.
///
//===----------------------------------------------------------------------===//

#ifndef CAI_SUPPORT_TEXTIO_H
#define CAI_SUPPORT_TEXTIO_H

#include <ostream>
#include <string>
#include <string_view>

namespace cai {

/// Reads the whole file at \p Path into \p Out.  Returns false, leaving
/// \p Out untouched, when the file cannot be opened or is a directory;
/// the caller words the error.
bool readFile(const std::string &Path, std::string &Out);

/// Writes \p S to \p OS as a JSON string literal, quotes included:
/// `"` and `\` are backslash-escaped, newline, carriage return and tab
/// get their short escapes, every other byte below 0x20 becomes \u00XX,
/// and all other bytes (UTF-8 included) pass through.
void writeJsonString(std::ostream &OS, std::string_view S);

} // namespace cai

#endif // CAI_SUPPORT_TEXTIO_H

//===- support/TextIO.cpp - File reads and JSON string literals -----------===//

#include "support/TextIO.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

bool cai::readFile(const std::string &Path, std::string &Out) {
  // A directory opens as a stream but holds no program; FIFOs and
  // /dev/stdin are read like files.
  std::error_code EC;
  if (std::filesystem::is_directory(Path, EC))
    return false;
  std::ifstream In(Path);
  if (!In)
    return false;
  // Stream insertion, unlike an istreambuf_iterator, turns a read error
  // into an empty text rather than an exception.
  std::ostringstream Text;
  Text << In.rdbuf();
  Out = Text.str();
  return true;
}

void cai::writeJsonString(std::ostream &OS, std::string_view S) {
  OS << '"';
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      OS << "\\\"";
      break;
    case '\\':
      OS << "\\\\";
      break;
    case '\n':
      OS << "\\n";
      break;
    case '\r':
      OS << "\\r";
      break;
    case '\t':
      OS << "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        OS << Buf;
      } else {
        OS << static_cast<char>(C);
      }
    }
  }
  OS << '"';
}

//===- perfbench/yardstick/Yardstick.cpp - CPU speed yardstick -------------===//
///
/// `yardstick` reads lines on stdin.  For each `slice` line it runs one
/// slice of fixed work and writes the slice's time in nanoseconds as one
/// line on stdout; any other line, or end of input, ends it.
///
/// A slice builds a hash table of 30000 random keys and an ordered map of
/// growing vectors, then frees them: allocation and dependent loads, about
/// 2-4 ms on the reference VM.  The host slows this work down the way it
/// slows an analysis down (perfbench/NOTES.md, "Speed yardstick", has the
/// measurements).  `pbtool drive` starts it on the CPU it shares with the
/// server and asks for slices between requests, so the host's speed drift
/// can be divided out of request times.
///
/// The program is built on its own and links nothing from the repository,
/// so no change to the program under test can change its speed.
///
//===----------------------------------------------------------------------===//

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace {

uint64_t Seed = 0x9e3779b97f4a7c15ull;

uint64_t sliceNs() {
  auto T0 = std::chrono::steady_clock::now();
  std::unordered_map<uint64_t, uint64_t> Hashed;
  std::map<uint64_t, std::vector<uint32_t>> Ordered;
  uint64_t X = Seed;
  for (int I = 0; I < 30000; ++I) {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    Hashed[X >> 44] += X;
  }
  for (int I = 0; I < 6000; ++I) {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    Ordered[(X >> 40) & 1023].push_back(uint32_t(X));
    if ((X >> 20) % 7 == 0)
      Ordered.erase(Ordered.begin());
  }
  Seed = X + Hashed.size() + Ordered.size();
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - T0)
                      .count());
}

} // namespace

int main() {
  for (std::string Line; std::getline(std::cin, Line) && Line == "slice";) {
    std::printf("%llu\n", static_cast<unsigned long long>(sliceNs()));
    std::fflush(stdout);
  }
  return 0;
}

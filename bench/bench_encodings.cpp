//===- bench/bench_encodings.cpp - Experiments E11/E12: Section 5 ----------===//
///
/// Cost and effect of the Section 5 reductions: analyzing a program with
/// commutative operators (5.1) or multi-arity uninterpreted functions
/// (5.2) through the single-unary-F encoding, versus analyzing it raw.
/// The `verified` counters show the precision gained by the reduction
/// (commutativity facts become provable) at a modest constant-factor cost.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "domains/affine/AffineDomain.h"
#include "domains/uf/UFDomain.h"
#include "encodings/Encodings.h"
#include "ir/ProgramBuilder.h"
#include "product/LogicalProduct.h"

#include <benchmark/benchmark.h>

using namespace cai;

namespace {

/// N parallel commutative accumulations asserting order-insensitivity.
Program commutativeProgram(TermContext &Ctx, int N) {
  ProgramBuilder B(Ctx);
  for (int I = 0; I < N; ++I) {
    std::string S1 = std::string("s1_").append(std::to_string(I));
    std::string S2 = std::string("s2_").append(std::to_string(I));
    std::string V = std::string("v").append(std::to_string(I));
    B.assign(S1, "base");
    B.assign(S2, "base");
    B.assign(S1, "G(" + S1 + ", " + V + ")");
    B.assign(S2, "G(" + V + ", " + S2 + ")");
    B.assertFact(S1 + " = " + S2,
                 std::string("comm#").append(std::to_string(I)));
  }
  return B.take();
}

/// N ternary-call pairs asserting memoizability.
Program arityProgram(TermContext &Ctx, int N) {
  ProgramBuilder B(Ctx);
  for (int I = 0; I < N; ++I) {
    std::string X = std::string("x").append(std::to_string(I));
    std::string Y = std::string("y").append(std::to_string(I));
    B.assign(X, "K(a, b, c)");
    B.assign(Y, "K(a, b, c)");
    B.assertFact(X + " = " + Y,
                 std::string("memo#").append(std::to_string(I)));
  }
  return B.take();
}

void BM_CommutativeRaw(benchmark::State &State) {
  TermContext Ctx;
  AffineDomain LA(Ctx);
  UFDomain UF(Ctx);
  LogicalProduct D(Ctx, LA, UF);
  Program P = commutativeProgram(Ctx, static_cast<int>(State.range(0)));
  unsigned Verified = 0;
  for (auto _ : State) {
    AnalysisResult R = Analyzer(D).run(P);
    Verified = R.numVerified();
    benchmark::DoNotOptimize(R);
  }
  State.counters["verified"] = Verified;
  State.counters["assertions"] = static_cast<double>(State.range(0));
}

void BM_CommutativeEncoded(benchmark::State &State) {
  TermContext Ctx;
  AffineDomain LA(Ctx);
  UFDomain UF(Ctx);
  LogicalProduct D(Ctx, LA, UF);
  Program P = commutativeProgram(Ctx, static_cast<int>(State.range(0)));
  unsigned Verified = 0;
  for (auto _ : State) {
    // Encoding cost is part of the measured loop: it is what a client
    // adopting the Section 5 reduction would pay per program.
    TermEncoder Enc(Ctx, TermEncoder::Scheme::Commutative);
    Program Encoded = Enc.encode(P);
    AnalysisResult R = Analyzer(D).run(Encoded);
    Verified = R.numVerified();
    benchmark::DoNotOptimize(R);
  }
  State.counters["verified"] = Verified;
  State.counters["assertions"] = static_cast<double>(State.range(0));
}

void BM_ArityEncoded(benchmark::State &State) {
  TermContext Ctx;
  AffineDomain LA(Ctx);
  UFDomain UF(Ctx);
  LogicalProduct D(Ctx, LA, UF);
  Program P = arityProgram(Ctx, static_cast<int>(State.range(0)));
  unsigned Verified = 0;
  for (auto _ : State) {
    TermEncoder Enc(Ctx, TermEncoder::Scheme::ArityReduction);
    Program Encoded = Enc.encode(P);
    AnalysisResult R = Analyzer(D).run(Encoded);
    Verified = R.numVerified();
    benchmark::DoNotOptimize(R);
  }
  State.counters["verified"] = Verified;
  State.counters["assertions"] = static_cast<double>(State.range(0));
}

void BM_ArityRawUF(benchmark::State &State) {
  // Baseline: the raw multi-arity program is already provable by plain
  // congruence; the encoding must not be much slower than this.
  TermContext Ctx;
  AffineDomain LA(Ctx);
  UFDomain UF(Ctx);
  LogicalProduct D(Ctx, LA, UF);
  Program P = arityProgram(Ctx, static_cast<int>(State.range(0)));
  unsigned Verified = 0;
  for (auto _ : State) {
    AnalysisResult R = Analyzer(D).run(P);
    Verified = R.numVerified();
    benchmark::DoNotOptimize(R);
  }
  State.counters["verified"] = Verified;
}

} // namespace

BENCHMARK(BM_CommutativeRaw)->RangeMultiplier(2)->Range(1, 8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CommutativeEncoded)->RangeMultiplier(2)->Range(1, 8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ArityRawUF)->RangeMultiplier(2)->Range(1, 8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ArityEncoded)->RangeMultiplier(2)->Range(1, 8)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();

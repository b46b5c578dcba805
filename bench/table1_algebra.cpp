// Regenerates paper Table 1 (the eight-valued AND truth table) and Table 2
// (the inverter), plus the non-robust relaxation cells. The AND table is
// reconstructed from waveform semantics (see algebra/tables.cpp).
#include <cstdio>

#include "algebra/tables.hpp"

using gdf::alg::DelayAlgebra;
using gdf::alg::Mode;
using gdf::alg::V8;

namespace {

constexpr V8 kAll[] = {V8::Zero, V8::One,  V8::Rise,  V8::Fall,
                       V8::ZeroH, V8::OneH, V8::RiseC, V8::FallC};

void print_and_table(const DelayAlgebra& algebra, const char* title) {
  std::printf("%s\n      ", title);
  for (const V8 col : kAll) {
    std::printf("%4s", std::string(gdf::alg::v8_name(col)).c_str());
  }
  std::printf("\n");
  for (const V8 row : kAll) {
    std::printf("%4s |", std::string(gdf::alg::v8_name(row)).c_str());
    for (const V8 col : kAll) {
      std::printf("%4s",
                  std::string(gdf::alg::v8_name(algebra.v_and(row, col)))
                      .c_str());
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("== Paper Table 1: truth table for the AND gate "
              "(robust gate delay fault algebra) ==\n");
  print_and_table(gdf::alg::robust_algebra(), "");

  std::printf("== Paper Table 2: truth table for the inverter ==\n  in  |");
  for (const V8 v : kAll) {
    std::printf("%4s", std::string(gdf::alg::v8_name(v)).c_str());
  }
  std::printf("\n  out |");
  for (const V8 v : kAll) {
    std::printf("%4s", std::string(gdf::alg::v8_name(
                                       gdf::alg::robust_algebra().v_not(v)))
                           .c_str());
  }
  std::printf("\n\n");

  std::printf("== Non-robust (hazard-relaxed) AND table — the §7 outlook "
              "==\n");
  print_and_table(gdf::alg::nonrobust_algebra(), "");
  std::printf("cells differing from Table 1:\n");
  for (const V8 a : kAll) {
    for (const V8 b : kAll) {
      const V8 r = gdf::alg::robust_algebra().v_and(a, b);
      const V8 n = gdf::alg::nonrobust_algebra().v_and(a, b);
      if (r != n) {
        std::printf("  %s AND %s : %s -> %s\n",
                    std::string(gdf::alg::v8_name(a)).c_str(),
                    std::string(gdf::alg::v8_name(b)).c_str(),
                    std::string(gdf::alg::v8_name(r)).c_str(),
                    std::string(gdf::alg::v8_name(n)).c_str());
      }
    }
  }
  return 0;
}

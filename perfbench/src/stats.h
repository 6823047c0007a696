// The benchmark's own statistics, random numbers and queueing closed forms.
//
// Deliberately independent of the program (no src/common/histogram, no src/common/rng):
// a change to the program's own instruments must not be able to move the benchmark's.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

// SplitMix64: tiny, seedable, and identical on every platform.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, bound); the modulo bias is below 2^-40 for every bound used here.
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  // Uniform in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // Exponential with the given mean (inverse CDF).
  double Exponential(double mean) { return -mean * std::log1p(-Unit()); }

 private:
  uint64_t state_;
};

// Nearest-rank q-quantile (q in [0, 1]) of `values`: the smallest value with at least
// a q share of the sample at or below it. Reorders `values`. Empty input gives 0.
template <typename T>
double Quantile(std::vector<T>& values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  size_t n = values.size();
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  size_t index = rank == 0 ? 0 : std::min(rank, n) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return static_cast<double>(values[index]);
}

// Erlang-C: probability that an arrival waits in an M/M/c queue offered `a` Erlangs
// (a < c), by the numerically stable Erlang-B recurrence.
inline double ErlangC(int c, double a) {
  double b = 1.0;  // Erlang-B with 0 servers
  for (int k = 1; k <= c; ++k) {
    b = a * b / (static_cast<double>(k) + a * b);
  }
  double rho = a / c;
  return b / (1.0 - rho * (1.0 - b));
}

// q-quantile of the M/M/c FCFS waiting time: an atom of 1 - ErlangC at zero, then
// P(W > t) = ErlangC · exp(-(c·mu - lambda)·t). Rates in events per unit time; the
// result is in the same time unit.
inline double MmcWaitQuantile(int c, double lambda, double mu, double q) {
  double wait_probability = ErlangC(c, lambda / mu);
  if (1.0 - q >= wait_probability) {
    return 0.0;
  }
  return std::log(wait_probability / (1.0 - q)) / (c * mu - lambda);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

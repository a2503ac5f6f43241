// The inference-kernel contract (the PR-4 counterpart of mstep_test.cc):
//  - every linalg micro-kernel matches a naive scalar reference across
//    lengths that exercise all four accumulator lanes and the tail,
//  - linalg buffers are 64-byte aligned,
//  - ForwardBackward through the kernel path matches brute-force
//    enumeration on a random (k, T) grid including k=1 and T=1,
//  - the workspace's cached transition transpose is rebuilt exactly when A
//    changes (stale-transpose detection) and never otherwise,
//  - steady-state inference (ForwardBackward / LogLikelihood / Viterbi at a
//    fixed shape, including an in-place transpose rebuild after an M-step
//    mutates A) performs zero heap allocations (instrumented operator new),
//  - the PR-9 SIMD dispatch contract: one-shot startup resolution honoring
//    DHMM_KERNEL_ISA (the *_scalar_isa ctest registrations rerun this
//    binary under the override), a cross-variant parity grid of every
//    KernelTable member against the scalar oracle at <= 1e-12, bitwise
//    self-reproducibility of every variant across repeated calls and
//    thread counts, and engine-level scalar-vs-vector agreement,
//  - the row-form viterbi_step: every variant bitwise equal to the scalar
//    oracle (and the oracle to the column-form scan it replaced) on ties,
//    -inf and NaN inputs, and whole-sequence TryViterbi bitwise across
//    ISAs.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "hmm/inference.h"
#include "linalg/aligned.h"
#include "linalg/kernels.h"
#include "linalg/kernels_dispatch.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "prob/logsumexp.h"
#include "prob/rng.h"

// ----------------------------------------------------- allocation counter ---

// Global operator new instrumentation: every heap allocation made anywhere
// in this binary bumps the counter, so a zero delta across a call proves the
// call is allocation-free. linalg::AlignedAllocator routes through this
// plain operator new on purpose (see linalg/aligned.h), so aligned buffers
// are counted too.
namespace {
std::atomic<long> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dhmm {
namespace {

namespace klib = linalg::kernels;

// Lengths covering the empty tail, partial tails of 1..3, and multi-block
// runs of the 4-way accumulator streams.
const size_t kLengths[] = {1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 64, 67};

std::vector<double> RandomRow(size_t n, uint64_t seed, double lo = -2.0,
                              double hi = 2.0) {
  prob::Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = lo + (hi - lo) * rng.Uniform();
  return v;
}

// --------------------------------------------------------------- kernels ---

TEST(KernelsTest, SumAndDotMatchNaiveReference) {
  for (size_t n : kLengths) {
    std::vector<double> x = RandomRow(n, 100 + n);
    std::vector<double> y = RandomRow(n, 200 + n);
    double sum_ref = 0.0, dot_ref = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum_ref += x[i];
      dot_ref += x[i] * y[i];
    }
    EXPECT_NEAR(klib::SumRow(x.data(), n), sum_ref, 1e-13 * (1.0 + n))
        << "n=" << n;
    EXPECT_NEAR(klib::Dot(x.data(), y.data(), n), dot_ref, 1e-13 * (1.0 + n))
        << "n=" << n;
  }
}

TEST(KernelsTest, DotIsDeterministicAcrossRepeats) {
  std::vector<double> x = RandomRow(67, 1);
  std::vector<double> y = RandomRow(67, 2);
  const double first = klib::Dot(x.data(), y.data(), 67);
  for (int rep = 0; rep < 8; ++rep) {
    EXPECT_EQ(klib::Dot(x.data(), y.data(), 67), first);
  }
}

TEST(KernelsTest, MatVecRowAndColAgreeWithEachOtherAndNaive) {
  for (size_t m : {1u, 3u, 5u, 20u}) {
    for (size_t n : {1u, 4u, 7u, 50u}) {
      std::vector<double> a = RandomRow(m * n, m * 100 + n);
      std::vector<double> x = RandomRow(m, m + n);
      std::vector<double> xt_a(n), naive(n, 0.0);
      klib::MatVecRow(x.data(), a.data(), m, n, xt_a.data());
      for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) naive[j] += x[i] * a[i * n + j];
      }
      for (size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(xt_a[j], naive[j], 1e-12) << m << "x" << n << " j=" << j;
      }
      // x^T A computed against the transpose via MatVecCol must agree.
      std::vector<double> a_t(n * m), via_t(n);
      klib::TransposeInto(a.data(), m, n, a_t.data());
      klib::MatVecCol(a_t.data(), x.data(), n, m, via_t.data());
      for (size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(via_t[j], naive[j], 1e-12) << m << "x" << n << " j=" << j;
      }
    }
  }
}

TEST(KernelsTest, FusedRowOpsMatchComposition) {
  for (size_t n : kLengths) {
    std::vector<double> x = RandomRow(n, 300 + n);
    std::vector<double> y = RandomRow(n, 400 + n);
    std::vector<double> acc = RandomRow(n, 500 + n);
    const double s = 1.7;

    std::vector<double> out(n);
    klib::MulRowScaledInto(x.data(), y.data(), s, n, out.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_DOUBLE_EQ(out[i], x[i] * y[i] * s) << "n=" << n;
    }

    std::vector<double> acc2 = acc;
    klib::AxpyMulRow(s, x.data(), y.data(), n, acc2.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_DOUBLE_EQ(acc2[i], acc[i] + s * x[i] * y[i]) << "n=" << n;
    }

    klib::ScaleRowInto(x.data(), s, n, out.data());
    for (size_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(out[i], x[i] * s);
  }
}

TEST(KernelsTest, ExpShiftRowLeavesAUnitEntry) {
  for (size_t n : kLengths) {
    std::vector<double> row = RandomRow(n, 600 + n, -90.0, -1.0);
    std::vector<double> out(n);
    const double m = klib::ExpShiftRow(row.data(), n, out.data());
    double max_ref = row[0], max_out = 0.0;
    for (size_t i = 0; i < n; ++i) {
      max_ref = std::max(max_ref, row[i]);
      max_out = std::max(max_out, out[i]);
      EXPECT_NEAR(out[i], std::exp(row[i] - m), 1e-15);
    }
    EXPECT_DOUBLE_EQ(m, max_ref);
    EXPECT_DOUBLE_EQ(max_out, 1.0);
  }
  // All -inf signals a zero-probability frame.
  std::vector<double> dead(3, prob::kNegInf), out(3);
  EXPECT_EQ(klib::ExpShiftRow(dead.data(), 3, out.data()), prob::kNegInf);
}

TEST(KernelsTest, ArgMaxBreaksTiesToLowestIndex) {
  const double row[] = {1.0, 3.0, 3.0, 0.5};
  EXPECT_EQ(klib::ArgMaxRow(row, 4), 1u);
  // One Viterbi step where every predecessor ties for state 0:
  // prev[i] + log_a(i, 0) = 3 for all i, so psi[0] must stay 0.
  const double prev[] = {1.0, 2.0, 0.0};
  const double log_a[] = {2.0, 0.0, 0.0,   //
                          1.0, 0.0, 0.0,   //
                          3.0, 0.0, 0.0};  // column 0 sums: 3, 3, 3
  const double log_b[] = {0.5, 0.0, 0.0};
  double delta[3] = {};
  int psi[3] = {-1, -1, -1};
  klib::ViterbiStep(prev, log_a, log_b, 3, delta, psi);
  EXPECT_EQ(psi[0], 0);
  EXPECT_DOUBLE_EQ(delta[0], 3.5);
  EXPECT_EQ(psi[1], 1);  // column 1: 1, 2, 0 — strict winner
  EXPECT_DOUBLE_EQ(delta[1], 2.0);
}

TEST(AlignedStorageTest, BuffersStartOnCacheLines) {
  for (size_t n : {1u, 5u, 64u, 1000u}) {
    linalg::Vector v(n);
    linalg::Matrix m(n, 3);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) %
                  linalg::kBufferAlignment,
              0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) %
                  linalg::kBufferAlignment,
              0u);
  }
}

// ----------------------------------------------- brute-force cross-check ---

struct Chain {
  linalg::Vector pi;
  linalg::Matrix a;
  linalg::Matrix log_b;
};

Chain MakeChain(size_t k, size_t big_t, uint64_t seed) {
  prob::Rng rng(seed);
  Chain c;
  c.pi = rng.DirichletSymmetric(k, 1.5);
  c.a = rng.RandomStochasticMatrix(k, k, 1.5);
  c.log_b = linalg::Matrix(big_t, k);
  for (size_t t = 0; t < big_t; ++t) {
    for (size_t i = 0; i < k; ++i) c.log_b(t, i) = -6.0 * rng.Uniform();
  }
  return c;
}

// Enumerates all k^T paths; tractable for the grid below.
void EnumerateReference(const Chain& c, double* loglik, linalg::Matrix* gamma,
                        linalg::Matrix* xi_sum) {
  const size_t k = c.pi.size();
  const size_t big_t = c.log_b.rows();
  size_t total = 1;
  for (size_t t = 0; t < big_t; ++t) total *= k;
  std::vector<double> logps(total);
  double best = prob::kNegInf;
  std::vector<int> path(big_t);
  for (size_t code = 0; code < total; ++code) {
    size_t rem = code;
    for (size_t t = 0; t < big_t; ++t) {
      path[t] = static_cast<int>(rem % k);
      rem /= k;
    }
    double lp =
        std::log(c.pi[static_cast<size_t>(path[0])]) + c.log_b(0, path[0]);
    for (size_t t = 1; t < big_t; ++t) {
      lp += std::log(c.a(static_cast<size_t>(path[t - 1]),
                         static_cast<size_t>(path[t]))) +
            c.log_b(t, path[t]);
    }
    logps[code] = lp;
    best = std::max(best, lp);
  }
  double z = 0.0;
  for (double lp : logps) z += std::exp(lp - best);
  *loglik = best + std::log(z);
  *gamma = linalg::Matrix(big_t, k);
  *xi_sum = linalg::Matrix(k, k);
  for (size_t code = 0; code < total; ++code) {
    size_t rem = code;
    for (size_t t = 0; t < big_t; ++t) {
      path[t] = static_cast<int>(rem % k);
      rem /= k;
    }
    const double w = std::exp(logps[code] - *loglik);
    for (size_t t = 0; t < big_t; ++t) {
      (*gamma)(t, static_cast<size_t>(path[t])) += w;
    }
    for (size_t t = 1; t < big_t; ++t) {
      (*xi_sum)(static_cast<size_t>(path[t - 1]),
                static_cast<size_t>(path[t])) += w;
    }
  }
}

TEST(KernelPathBruteForceTest, ForwardBackwardMatchesEnumerationOnGrid) {
  // Dirty workspace reused across every shape, exactly as the engine does.
  hmm::InferenceWorkspace ws;
  hmm::ForwardBackwardResult fb;
  for (size_t k : {1u, 2u, 3u, 5u}) {
    for (size_t big_t : {1u, 2u, 4u, 6u}) {
      Chain c = MakeChain(k, big_t, 7000 + 10 * k + big_t);
      hmm::ForwardBackward(c.pi, c.a, c.log_b, &ws, &fb);
      double ll_ref;
      linalg::Matrix gamma_ref, xi_ref;
      EnumerateReference(c, &ll_ref, &gamma_ref, &xi_ref);
      EXPECT_NEAR(fb.log_likelihood, ll_ref, 1e-9) << "k=" << k
                                                   << " T=" << big_t;
      for (size_t t = 0; t < big_t; ++t) {
        for (size_t i = 0; i < k; ++i) {
          EXPECT_NEAR(fb.gamma(t, i), gamma_ref(t, i), 1e-9)
              << "k=" << k << " T=" << big_t << " gamma(" << t << "," << i
              << ")";
        }
      }
      for (size_t i = 0; i < k; ++i) {
        for (size_t j = 0; j < k; ++j) {
          EXPECT_NEAR(fb.xi_sum(i, j), xi_ref(i, j), 1e-9)
              << "k=" << k << " T=" << big_t;
        }
      }
      EXPECT_NEAR(hmm::LogLikelihood(c.pi, c.a, c.log_b, &ws), ll_ref, 1e-9);
    }
  }
}

TEST(KernelPathBruteForceTest, SingleStateChainIsExact) {
  // k=1: gamma is identically 1, xi_sum counts T-1 transitions, and the
  // log-likelihood is exactly the sum of the emission rows.
  const size_t big_t = 9;
  Chain c;
  c.pi = linalg::Vector{1.0};
  c.a = linalg::Matrix{{1.0}};
  c.log_b = linalg::Matrix(big_t, 1);
  double expected = 0.0;
  for (size_t t = 0; t < big_t; ++t) {
    c.log_b(t, 0) = -1.5 - static_cast<double>(t);
    expected += c.log_b(t, 0);
  }
  hmm::ForwardBackwardResult fb = hmm::ForwardBackward(c.pi, c.a, c.log_b);
  EXPECT_NEAR(fb.log_likelihood, expected, 1e-12);
  for (size_t t = 0; t < big_t; ++t) EXPECT_DOUBLE_EQ(fb.gamma(t, 0), 1.0);
  EXPECT_DOUBLE_EQ(fb.xi_sum(0, 0), static_cast<double>(big_t - 1));

  hmm::ViterbiResult vit = hmm::Viterbi(c.pi, c.a, c.log_b);
  EXPECT_NEAR(vit.log_joint, expected, 1e-12);
  for (int s : vit.path) EXPECT_EQ(s, 0);
}

// -------------------------------------------------------- stale transpose ---

TEST(TransitionCacheTest, RebuildsExactlyWhenAChanges) {
  const size_t k = 4;
  prob::Rng rng(11);
  linalg::Matrix a = rng.RandomStochasticMatrix(k, k, 1.5);
  hmm::TransitionCache cache;

  const linalg::Matrix& at = cache.Transpose(a);
  const uint64_t v1 = cache.version();
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) EXPECT_EQ(at(j, i), a(i, j));
  }

  // Same contents: revalidation must not rebuild.
  cache.Transpose(a);
  linalg::Matrix same = a;
  cache.Transpose(same);
  EXPECT_EQ(cache.version(), v1);

  // Mutated contents: the cached transpose must be rebuilt.
  a(1, 2) += 0.125;
  a(1, 3) -= 0.125;
  const linalg::Matrix& at2 = cache.Transpose(a);
  EXPECT_EQ(cache.version(), v1 + 1);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) EXPECT_EQ(at2(j, i), a(i, j));
  }
  // The row-major log view follows the same staleness key.
  const linalg::Matrix& log_a = cache.Log(a);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) EXPECT_EQ(log_a(i, j), std::log(a(i, j)));
  }
  EXPECT_EQ(cache.version(), v1 + 1);
}

TEST(TransitionCacheTest, InferenceSeesMutatedAThroughAReusedWorkspace) {
  const size_t k = 3, big_t = 12;
  Chain c = MakeChain(k, big_t, 21);
  hmm::InferenceWorkspace ws;
  hmm::ForwardBackwardResult fb;
  hmm::ViterbiResult vit;
  hmm::ForwardBackward(c.pi, c.a, c.log_b, &ws, &fb);
  hmm::Viterbi(c.pi, c.a, c.log_b, &ws, &vit);

  // Mutate A between calls (the M-step shape) and require the reused
  // workspace to match a fresh one bitwise — a stale transpose would not.
  prob::Rng rng(22);
  c.a = rng.RandomStochasticMatrix(k, k, 0.7);
  hmm::ForwardBackward(c.pi, c.a, c.log_b, &ws, &fb);
  hmm::ForwardBackwardResult fresh = hmm::ForwardBackward(c.pi, c.a, c.log_b);
  EXPECT_EQ(fb.log_likelihood, fresh.log_likelihood);
  for (size_t t = 0; t < big_t; ++t) {
    for (size_t i = 0; i < k; ++i) {
      ASSERT_EQ(fb.gamma(t, i), fresh.gamma(t, i));
    }
  }
  hmm::Viterbi(c.pi, c.a, c.log_b, &ws, &vit);
  hmm::ViterbiResult vit_fresh = hmm::Viterbi(c.pi, c.a, c.log_b);
  EXPECT_EQ(vit.log_joint, vit_fresh.log_joint);
  EXPECT_EQ(vit.path, vit_fresh.path);
  EXPECT_EQ(hmm::LogLikelihood(c.pi, c.a, c.log_b, &ws),
            hmm::LogLikelihood(c.pi, c.a, c.log_b));
}

// -------------------------------------------------------- allocation-free ---

TEST(InferenceAllocationTest, SteadyStateInferenceAllocatesNothing) {
  const size_t k = 20, big_t = 60;
  Chain c = MakeChain(k, big_t, 31);
  hmm::InferenceWorkspace ws;
  hmm::ForwardBackwardResult fb;
  hmm::ViterbiResult vit;
  // Warm-up sizes every buffer, including the cached transpose and the
  // Viterbi log(A) view and backpointer table.
  hmm::ForwardBackward(c.pi, c.a, c.log_b, &ws, &fb);
  hmm::LogLikelihood(c.pi, c.a, c.log_b, &ws);
  hmm::Viterbi(c.pi, c.a, c.log_b, &ws, &vit);

  long before = g_alloc_count.load(std::memory_order_relaxed);
  hmm::ForwardBackward(c.pi, c.a, c.log_b, &ws, &fb);
  hmm::LogLikelihood(c.pi, c.a, c.log_b, &ws);
  hmm::Viterbi(c.pi, c.a, c.log_b, &ws, &vit);
  long after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "steady-state inference made " << (after - before)
      << " heap allocations";
}

TEST(InferenceAllocationTest, TransposeRebuildAtFixedKIsInPlace) {
  const size_t k = 12, big_t = 30;
  Chain c = MakeChain(k, big_t, 41);
  hmm::InferenceWorkspace ws;
  hmm::ForwardBackwardResult fb;
  hmm::ViterbiResult vit;
  hmm::ForwardBackward(c.pi, c.a, c.log_b, &ws, &fb);
  hmm::Viterbi(c.pi, c.a, c.log_b, &ws, &vit);

  // An M-step rewrites A; the cache must refresh without allocating.
  prob::Rng rng(42);
  linalg::Matrix a2 = rng.RandomStochasticMatrix(k, k, 2.0);
  long before = g_alloc_count.load(std::memory_order_relaxed);
  for (size_t i = 0; i < k * k; ++i) c.a.data()[i] = a2.data()[i];
  hmm::ForwardBackward(c.pi, c.a, c.log_b, &ws, &fb);
  hmm::Viterbi(c.pi, c.a, c.log_b, &ws, &vit);
  long after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "in-place transpose rebuild made " << (after - before)
      << " heap allocations";
}

// ------------------------------------------------------- startup dispatch ---

// Applies every KernelTable member to inputs derived from `seed`, flattening
// all outputs (including the full xi accumulators) into one vector so whole
// variants can be compared wholesale — with EXPECT_NEAR for cross-ISA parity
// or memcmp for bitwise self-reproducibility.
std::vector<double> ApplyAllKernels(const klib::KernelTable& kt, size_t n,
                                    uint64_t seed) {
  std::vector<double> x = RandomRow(n, seed);
  std::vector<double> y = RandomRow(n, seed + 1);
  std::vector<double> w = RandomRow(n, seed + 2, 0.0, 1.0);
  std::vector<double> logrow = RandomRow(n, seed + 3, -30.0, 0.0);
  std::vector<double> a = RandomRow(n * n, seed + 4, 0.0, 1.0);
  if (n > 1) w[0] = 0.0;  // exercise the xi zero-skip rows
  std::vector<double> out;
  std::vector<double> v(n), xi(n * n);
  auto push = [&](const std::vector<double>& r) {
    out.insert(out.end(), r.begin(), r.end());
  };
  out.push_back(kt.sum_row(x.data(), n));
  out.push_back(kt.dot(x.data(), y.data(), n));
  out.push_back(kt.max_row(x.data(), n));
  kt.mul_row_scaled_into(x.data(), y.data(), 1.7, n, v.data());
  push(v);
  v.assign(n, 0.25);
  kt.axpy_row(0.6, x.data(), n, v.data());
  push(v);
  v.assign(n, 0.25);
  kt.axpy_mul_row(0.6, x.data(), y.data(), n, v.data());
  push(v);
  xi.assign(n * n, 0.5);
  kt.axpy_mul_mat(w.data(), a.data(), y.data(), n, n, xi.data());
  push(xi);
  kt.mat_vec_row(x.data(), a.data(), n, n, v.data());
  push(v);
  kt.mat_vec_col(a.data(), x.data(), n, n, v.data());
  push(v);
  kt.mat_vec_col_mul(a.data(), x.data(), w.data(), n, n, v.data());
  push(v);
  xi.assign(n * n, 0.125);
  kt.backward_fused(a.data(), y.data(), w.data(), n, n, v.data(), xi.data());
  push(v);
  push(xi);
  out.push_back(kt.exp_shift_row(logrow.data(), n, v.data()));
  push(v);
  return out;
}

TEST(DispatchTest, ResolutionIsOneShotAndHonorsEnvOverride) {
  const klib::KernelTable& t1 = klib::Active();
  const klib::KernelTable& t2 = klib::Active();
  EXPECT_EQ(&t1, &t2);
  EXPECT_EQ(t1.isa, klib::ActiveIsa());
  // ForK pins each k-class to one table object for the process lifetime —
  // the property the engine/serve bitwise contracts stand on.
  for (size_t k = 1; k <= klib::kMaxFixedK + 4; ++k) {
    const klib::KernelTable& a = klib::ForK(k);
    const klib::KernelTable& b = klib::ForK(k);
    EXPECT_EQ(&a, &b) << "k=" << k;
    EXPECT_EQ(a.isa, klib::ActiveIsa()) << "k=" << k;
    if (k <= klib::kMaxFixedK && klib::ActiveIsa() != klib::Isa::kScalar) {
      EXPECT_EQ(a.fixed_k, k);
    } else {
      EXPECT_EQ(a.fixed_k, 0u) << "k=" << k;
      EXPECT_EQ(&a, &klib::Active()) << "k=" << k;
    }
  }
  // When DHMM_KERNEL_ISA names a compiled-and-supported ISA, the one-shot
  // resolution must have honored it. The *_scalar_isa ctest registrations
  // run this whole binary under DHMM_KERNEL_ISA=scalar, so this branch is
  // exercised in every CI run, not just when a developer exports the var.
  if (const char* env = std::getenv("DHMM_KERNEL_ISA")) {
    const std::string want(env);
    for (klib::Isa isa : klib::CompiledIsas()) {
      if (want == klib::IsaName(isa) && klib::IsaAvailable(isa)) {
        EXPECT_EQ(klib::ActiveIsa(), isa) << "override " << want;
      }
    }
  }
}

TEST(DispatchTest, StartupSummaryReportsActiveResolution) {
  const std::string s = klib::StartupSummary();
  // Printed to stdout so wrappers can assert the *observed* resolution
  // instead of trusting their own env plumbing: CI's scalar-pinned rerun
  // greps this line for "isa=scalar" — a mistyped env *name* there would
  // otherwise silently re-test the vector path (a mistyped env *value*
  // already aborts at resolution).
  std::printf("kernel dispatch: %s\n", s.c_str());
  std::fflush(stdout);
  EXPECT_EQ(s.rfind("isa=" + std::string(klib::ActiveIsaName()) + " ", 0), 0u)
      << s;
  EXPECT_NE(s.find(" detected="), std::string::npos) << s;
  EXPECT_NE(s.find(" override="), std::string::npos) << s;
}

TEST(DispatchTest, CrossVariantParityGridVsScalarOracle) {
  // Every compiled vector ISA, both its generic and (n <= kMaxFixedK)
  // fixed-k tables, against the verbatim scalar oracle. Lengths cover every
  // fixed-k instantiation plus generic shapes with empty and partial tails.
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5},
                   size_t{6}, size_t{7}, size_t{8}, size_t{12}, size_t{16},
                   size_t{20}, size_t{50}}) {
    const std::vector<double> ref =
        ApplyAllKernels(klib::TableFor(klib::Isa::kScalar, n), n, 900 + n);
    for (klib::Isa isa : klib::CompiledIsas()) {
      if (isa == klib::Isa::kScalar || !klib::IsaAvailable(isa)) continue;
      for (const klib::KernelTable* kt :
           {&klib::TableFor(isa, n), &klib::TableFor(isa)}) {
        const std::vector<double> got = ApplyAllKernels(*kt, n, 900 + n);
        ASSERT_EQ(got.size(), ref.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_NEAR(got[i], ref[i], 1e-12)
              << kt->name << " n=" << n << " flat index " << i;
        }
      }
    }
  }
}

TEST(DispatchTest, VariantsAreBitwiseReproducibleAcrossCallsAndThreads) {
  for (klib::Isa isa : klib::CompiledIsas()) {
    if (!klib::IsaAvailable(isa)) continue;
    for (size_t n : {size_t{5}, size_t{8}, size_t{50}}) {
      const klib::KernelTable& kt = klib::TableFor(isa, n);
      const std::vector<double> first = ApplyAllKernels(kt, n, 1300 + n);
      for (int rep = 0; rep < 3; ++rep) {
        const std::vector<double> again = ApplyAllKernels(kt, n, 1300 + n);
        ASSERT_EQ(again.size(), first.size());
        EXPECT_EQ(0, std::memcmp(again.data(), first.data(),
                                 first.size() * sizeof(double)))
            << kt.name << " n=" << n << " rep " << rep;
      }
      std::vector<std::vector<double>> per_thread(4);
      std::vector<std::thread> threads;
      for (size_t t = 0; t < per_thread.size(); ++t) {
        threads.emplace_back(
            [&, t] { per_thread[t] = ApplyAllKernels(kt, n, 1300 + n); });
      }
      for (std::thread& t : threads) t.join();
      for (size_t t = 0; t < per_thread.size(); ++t) {
        ASSERT_EQ(per_thread[t].size(), first.size());
        EXPECT_EQ(0, std::memcmp(per_thread[t].data(), first.data(),
                                 first.size() * sizeof(double)))
            << kt.name << " n=" << n << " thread " << t;
      }
    }
  }
}

TEST(DispatchTest, EngineAgreesAcrossIsasEndToEnd) {
  // Full ForwardBackward under the active tables vs forced-scalar tables,
  // at a fixed-k shape and a generic shape. This is the in-process
  // counterpart of the *_scalar_isa ctest registrations (which check the
  // same property through the environment override).
  const klib::Isa active = klib::ActiveIsa();
  for (size_t k : {size_t{6}, size_t{13}}) {
    const size_t big_t = 40;
    Chain c = MakeChain(k, big_t, 424200 + k);
    hmm::ForwardBackwardResult fb_active =
        hmm::ForwardBackward(c.pi, c.a, c.log_b);
    ASSERT_TRUE(klib::internal::ForceIsaForTestOnly(klib::Isa::kScalar));
    hmm::ForwardBackwardResult fb_scalar =
        hmm::ForwardBackward(c.pi, c.a, c.log_b);
    ASSERT_TRUE(klib::internal::ForceIsaForTestOnly(active));
    EXPECT_NEAR(fb_active.log_likelihood, fb_scalar.log_likelihood, 1e-9);
    for (size_t t = 0; t < big_t; ++t) {
      for (size_t i = 0; i < k; ++i) {
        EXPECT_NEAR(fb_active.gamma(t, i), fb_scalar.gamma(t, i), 1e-9);
      }
    }
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < k; ++j) {
        EXPECT_NEAR(fb_active.xi_sum(i, j), fb_scalar.xi_sum(i, j), 1e-9);
      }
    }
  }
}

// --------------------------------------------------- row-form Viterbi ---

// The column-form scan TryViterbi ran before the row-form kernel: for each
// j, argmax over i of prev[i] + log_a(i, j) with the first candidate as the
// seed and strict > afterwards. Kept here to pin the oracle to it bitwise.
void ColumnFormViterbiStep(const double* prev, const double* log_a,
                           const double* log_b, size_t k, double* delta,
                           int* psi) {
  for (size_t j = 0; j < k; ++j) {
    double best = prev[0] + log_a[j];
    int arg = 0;
    for (size_t i = 1; i < k; ++i) {
      const double v = prev[i] + log_a[i * k + j];
      if (v > best) {
        best = v;
        arg = static_cast<int>(i);
      }
    }
    delta[j] = best + log_b[j];
    psi[j] = arg;
  }
}

struct ViterbiStepCase {
  const char* name;
  std::vector<double> prev, log_a, log_b;
};

// Random plus adversarial frames: small-integer values (many partial
// ties), every candidate tied, -inf rows and columns of log A, -inf and
// NaN predecessors, NaN transitions (including the first candidate).
std::vector<ViterbiStepCase> ViterbiStepCases(size_t k, uint64_t seed) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  prob::Rng rng(seed);
  std::vector<ViterbiStepCase> cases;
  auto random = [&](const char* name) {
    ViterbiStepCase c{name, RandomRow(k, rng.NextU64(), -40.0, 0.0),
                      RandomRow(k * k, rng.NextU64(), -8.0, 0.0),
                      RandomRow(k, rng.NextU64(), -6.0, 0.0)};
    return c;
  };
  cases.push_back(random("random"));
  ViterbiStepCase ints = random("small-int ties");
  for (double& v : ints.prev) v = std::floor(v / 20.0);
  for (double& v : ints.log_a) v = std::floor(v / 4.0);
  cases.push_back(ints);
  ViterbiStepCase tie = random("all tie");
  tie.prev.assign(k, -1.5);
  tie.log_a.assign(k * k, -0.25);
  cases.push_back(tie);
  ViterbiStepCase zeros = random("-inf row and column");
  for (size_t j = 0; j < k; ++j) zeros.log_a[(k / 2) * k + j] = prob::kNegInf;
  for (size_t i = 0; i < k; ++i) zeros.log_a[i * k + (k - 1)] = prob::kNegInf;
  zeros.log_a[0] = prob::kNegInf;
  cases.push_back(zeros);
  ViterbiStepCase dead = random("-inf prev");
  dead.prev[0] = prob::kNegInf;
  dead.prev[k - 1] = prob::kNegInf;
  cases.push_back(dead);
  ViterbiStepCase all_dead = random("all -inf prev");
  all_dead.prev.assign(k, prob::kNegInf);
  cases.push_back(all_dead);
  ViterbiStepCase nan_prev = random("NaN prev");
  nan_prev.prev[k / 2] = nan;
  cases.push_back(nan_prev);
  ViterbiStepCase nan_first = random("NaN first prev");
  nan_first.prev[0] = nan;
  cases.push_back(nan_first);
  ViterbiStepCase nan_a = random("NaN log A");
  nan_a.log_a[0] = nan;  // first candidate of column 0
  for (size_t i = 0; i < k; ++i) nan_a.log_a[i * k + (i * 7) % k] = nan;
  cases.push_back(nan_a);
  return cases;
}

TEST(DispatchTest, ViterbiStepBitwiseEqualToOracleOnEveryIsa) {
  constexpr size_t kGuard = 9;  // sentinels past k catch stray tail stores
  for (size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5},
                   size_t{6}, size_t{7}, size_t{8}, size_t{9}, size_t{12},
                   size_t{15}, size_t{16}, size_t{17}, size_t{20},
                   size_t{50}}) {
    for (const ViterbiStepCase& c : ViterbiStepCases(k, 7000 + k)) {
      std::vector<double> ref_delta(k), col_delta(k);
      std::vector<int> ref_psi(k), col_psi(k);
      klib::ViterbiStep(c.prev.data(), c.log_a.data(), c.log_b.data(), k,
                        ref_delta.data(), ref_psi.data());
      ColumnFormViterbiStep(c.prev.data(), c.log_a.data(), c.log_b.data(), k,
                            col_delta.data(), col_psi.data());
      ASSERT_EQ(0, std::memcmp(ref_delta.data(), col_delta.data(),
                               k * sizeof(double)))
          << "oracle vs column form, k=" << k << " " << c.name;
      ASSERT_EQ(ref_psi, col_psi) << "k=" << k << " " << c.name;
      for (klib::Isa isa : klib::CompiledIsas()) {
        if (!klib::IsaAvailable(isa)) continue;
        for (const klib::KernelTable* kt :
             {&klib::TableFor(isa, k), &klib::TableFor(isa)}) {
          std::vector<double> delta(k + kGuard, 123.0);
          std::vector<int> psi(k + kGuard, -7);
          kt->viterbi_step(c.prev.data(), c.log_a.data(), c.log_b.data(), k,
                           delta.data(), psi.data());
          EXPECT_EQ(0, std::memcmp(delta.data(), ref_delta.data(),
                                   k * sizeof(double)))
              << kt->name << " delta, k=" << k << " " << c.name;
          EXPECT_TRUE(std::equal(ref_psi.begin(), ref_psi.end(), psi.begin()))
              << kt->name << " psi, k=" << k << " " << c.name;
          for (size_t g = k; g < k + kGuard; ++g) {
            EXPECT_EQ(delta[g], 123.0) << kt->name << " k=" << k;
            EXPECT_EQ(psi[g], -7) << kt->name << " k=" << k;
          }
        }
      }
    }
  }
}

TEST(DispatchTest, TryViterbiBitwiseEqualAcrossIsas) {
  const klib::Isa active = klib::ActiveIsa();
  for (size_t k : {size_t{1}, size_t{3}, size_t{5}, size_t{8}, size_t{13},
                   size_t{20}, size_t{50}}) {
    const size_t big_t = 48;
    Chain random = MakeChain(k, big_t, 515000 + k);
    if (k > 2) random.a(0, k - 1) = 0.0;  // a -inf lane through the run
    // Uniform pi and A with emissions on a 0.5 grid: equal predecessor
    // scores are common, so psi pins the lowest-index tie-break at every
    // frame, backtrack included.
    Chain tied = random;
    for (size_t i = 0; i < k; ++i) tied.pi[i] = 1.0 / static_cast<double>(k);
    tied.a.Fill(1.0 / static_cast<double>(k));
    for (size_t t = 0; t < big_t; ++t) {
      for (size_t i = 0; i < k; ++i) {
        tied.log_b(t, i) = std::round(tied.log_b(t, i) / 3.0) * 0.5;
      }
    }
    for (const Chain* c : {&random, &tied}) {
      ASSERT_TRUE(klib::internal::ForceIsaForTestOnly(klib::Isa::kScalar));
      hmm::InferenceWorkspace ref_ws;
      hmm::ViterbiResult ref;
      EXPECT_TRUE(hmm::TryViterbi(c->pi, c->a, c->log_b, &ref_ws, &ref).ok());
      for (klib::Isa isa : klib::CompiledIsas()) {
        if (!klib::IsaAvailable(isa)) continue;
        ASSERT_TRUE(klib::internal::ForceIsaForTestOnly(isa));
        hmm::InferenceWorkspace ws;
        hmm::ViterbiResult got;
        EXPECT_TRUE(hmm::TryViterbi(c->pi, c->a, c->log_b, &ws, &got).ok());
        const std::string where = std::string(klib::IsaName(isa)) +
                                  " k=" + std::to_string(k) +
                                  (c == &tied ? " tied" : " random");
        EXPECT_EQ(got.path, ref.path) << where;
        EXPECT_EQ(0, std::memcmp(&got.log_joint, &ref.log_joint,
                                 sizeof(double)))
            << where;
        EXPECT_EQ(0, std::memcmp(ws.delta.data(), ref_ws.delta.data(),
                                 big_t * k * sizeof(double)))
            << where;
        EXPECT_EQ(ws.psi, ref_ws.psi) << where;
      }
    }
  }
  ASSERT_TRUE(klib::internal::ForceIsaForTestOnly(active));
}

}  // namespace
}  // namespace dhmm

// Reference computations the benchmark checks the library's outputs
// against. They are plain log-space loops over a model's parameters and
// compute emission log-densities themselves: nothing here calls into the
// library's inference code or its linalg kernels, so a fault there cannot
// hide by agreeing with itself.
#ifndef DHMM_PERFBENCH_REFERENCE_H_
#define DHMM_PERFBENCH_REFERENCE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "hmm/model.h"
#include "hmm/sequence.h"

namespace perfbench::ref {

/// Log-space copy of a model: log pi, log A (row-major) and a way to get
/// log b_i(y) from the emission's parameters (Gaussian mean/sigma or the
/// categorical matrix).
template <typename Obs>
struct LogModel {
  size_t k = 0;
  std::vector<double> log_pi;
  std::vector<double> log_a;  // k x k
  /// Emission parameters: Gaussian (mu, sigma) per state, or the
  /// categorical k x V matrix of log probabilities.
  std::vector<double> mu, sigma;
  std::vector<double> log_b;
  size_t vocab = 0;

  explicit LogModel(const dhmm::hmm::HmmModel<Obs>& m);
  double LogB(size_t i, const Obs& y) const;
  /// T x k table of log b_i(y_t).
  std::vector<double> Table(const std::vector<Obs>& y) const;
};

/// max over paths of log P(x, y).
template <typename Obs>
double ViterbiLogJoint(const LogModel<Obs>& m, const std::vector<double>& lb,
                       size_t T);
/// One max-product path (lowest state index on ties).
template <typename Obs>
std::vector<int> ViterbiPath(const LogModel<Obs>& m,
                             const std::vector<double>& lb, size_t T);
/// log P(path, y).
template <typename Obs>
double PathLogJoint(const LogModel<Obs>& m, const std::vector<double>& lb,
                    const std::vector<int>& path);
/// log P(y) by the log-space forward recursion.
template <typename Obs>
double LogLikelihood(const LogModel<Obs>& m, const std::vector<double>& lb,
                     size_t T);
/// Smoothed posteriors P(x_t = i | y) as a T x k table; returns log P(y).
template <typename Obs>
double Posterior(const LogModel<Obs>& m, const std::vector<double>& lb,
                 size_t T, std::vector<double>* gamma);
/// Fixed-lag smoothed posteriors: row t is P(x_t | y_0..y_min(t+lag,T-1)),
/// the distribution a lag-`lag` stream labels frame t from.
template <typename Obs>
void FixedLagPosterior(const LogModel<Obs>& m, const std::vector<double>& lb,
                       size_t T, size_t lag, std::vector<double>* post);
/// Sum of log P(y) over a dataset.
template <typename Obs>
double CorpusLogLikelihood(const dhmm::hmm::HmmModel<Obs>& model,
                           const dhmm::hmm::Dataset<Obs>& data);

/// True when `label` attains the row maximum of `row` (length k) within
/// `tol` — ties between states are allowed.
bool IsArgMax(const double* row, size_t k, int label, double tol);
/// |x - y| <= tol * max(1, |y|).
bool CloseRel(double x, double y, double tol);

/// Checks every reference routine against brute-force enumeration of all
/// state paths on small models (k <= 3, T <= 6), Gaussian and categorical.
/// Returns an empty string on success, else what disagreed.
std::string SelfCheck(uint64_t seed);

}  // namespace perfbench::ref

#endif  // DHMM_PERFBENCH_REFERENCE_H_

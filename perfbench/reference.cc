#include "reference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>

#include "prob/categorical_emission.h"
#include "prob/gaussian_emission.h"
#include "prob/rng.h"

namespace perfbench::ref {
namespace {

using dhmm::hmm::HmmModel;
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

double SafeLog(double x) { return x > 0.0 ? std::log(x) : kNegInf; }

double LogAddExp(double a, double b) {
  if (a == kNegInf) return b;
  if (b == kNegInf) return a;
  const double m = std::max(a, b);
  return m + std::log(std::exp(a - m) + std::exp(b - m));
}

// log sum_i exp(v[i]) over a strided row.
double LogSumExp(const double* v, size_t n) {
  double m = kNegInf;
  for (size_t i = 0; i < n; ++i) m = std::max(m, v[i]);
  if (m == kNegInf) return kNegInf;
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += std::exp(v[i] - m);
  return m + std::log(s);
}

template <typename Obs>
void FillModel(const HmmModel<Obs>& m, LogModel<Obs>* out) {
  const size_t k = m.num_states();
  out->k = k;
  out->log_pi.resize(k);
  out->log_a.resize(k * k);
  for (size_t i = 0; i < k; ++i) {
    out->log_pi[i] = SafeLog(m.pi[i]);
    for (size_t j = 0; j < k; ++j) out->log_a[i * k + j] = SafeLog(m.a(i, j));
  }
}

// Log forward messages: T x k, alpha[t][i] = log P(y_0..y_t, x_t = i).
template <typename Obs>
void LogForward(const LogModel<Obs>& m, const std::vector<double>& lb,
                size_t T, std::vector<double>* alpha) {
  const size_t k = m.k;
  alpha->assign(T * k, kNegInf);
  std::vector<double> tmp(k);
  for (size_t i = 0; i < k; ++i) (*alpha)[i] = m.log_pi[i] + lb[i];
  for (size_t t = 1; t < T; ++t) {
    for (size_t j = 0; j < k; ++j) {
      for (size_t i = 0; i < k; ++i) {
        tmp[i] = (*alpha)[(t - 1) * k + i] + m.log_a[i * k + j];
      }
      (*alpha)[t * k + j] = LogSumExp(tmp.data(), k) + lb[t * k + j];
    }
  }
}

// Log backward messages over frames [0, last]: beta[t][i] =
// log P(y_{t+1}..y_last | x_t = i), beta[last] = 0.
template <typename Obs>
void LogBackward(const LogModel<Obs>& m, const std::vector<double>& lb,
                 size_t last, std::vector<double>* beta) {
  const size_t k = m.k;
  beta->assign((last + 1) * k, 0.0);
  std::vector<double> tmp(k);
  for (size_t t = last; t-- > 0;) {
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < k; ++j) {
        tmp[j] = m.log_a[i * k + j] + lb[(t + 1) * k + j] +
                 (*beta)[(t + 1) * k + j];
      }
      (*beta)[t * k + i] = LogSumExp(tmp.data(), k);
    }
  }
}

// Normalized posterior row from log alpha + log beta.
void NormalizeRow(const double* la, const double* lbeta, size_t k,
                  double* out) {
  std::vector<double> v(k);
  for (size_t i = 0; i < k; ++i) v[i] = la[i] + lbeta[i];
  const double z = LogSumExp(v.data(), k);
  for (size_t i = 0; i < k; ++i) out[i] = std::exp(v[i] - z);
}

}  // namespace

template <>
LogModel<double>::LogModel(const HmmModel<double>& m) {
  FillModel(m, this);
  const auto* g =
      dynamic_cast<const dhmm::prob::GaussianEmission*>(m.emission.get());
  if (g == nullptr) return;  // unsupported family: LogB stays -inf
  for (size_t i = 0; i < k; ++i) {
    mu.push_back(g->mu()[i]);
    sigma.push_back(g->sigma()[i]);
  }
}

template <>
LogModel<int>::LogModel(const HmmModel<int>& m) {
  FillModel(m, this);
  const auto* c =
      dynamic_cast<const dhmm::prob::CategoricalEmission*>(m.emission.get());
  if (c == nullptr) return;
  vocab = c->b().cols();
  log_b.resize(k * vocab);
  for (size_t i = 0; i < k; ++i) {
    for (size_t v = 0; v < vocab; ++v) log_b[i * vocab + v] = SafeLog(c->b()(i, v));
  }
}

template <>
double LogModel<double>::LogB(size_t i, const double& y) const {
  if (i >= mu.size()) return kNegInf;
  const double d = y - mu[i];
  return -d * d / (2.0 * sigma[i] * sigma[i]) - std::log(sigma[i]) -
         0.5 * std::log(2.0 * M_PI);
}

template <>
double LogModel<int>::LogB(size_t i, const int& y) const {
  if (y < 0 || static_cast<size_t>(y) >= vocab) return kNegInf;
  return log_b[i * vocab + static_cast<size_t>(y)];
}

template <typename Obs>
std::vector<double> LogModel<Obs>::Table(const std::vector<Obs>& y) const {
  std::vector<double> t(y.size() * k);
  for (size_t s = 0; s < y.size(); ++s) {
    for (size_t i = 0; i < k; ++i) t[s * k + i] = LogB(i, y[s]);
  }
  return t;
}

template <typename Obs>
double ViterbiLogJoint(const LogModel<Obs>& m, const std::vector<double>& lb,
                       size_t T) {
  const size_t k = m.k;
  std::vector<double> d(k), nd(k);
  for (size_t i = 0; i < k; ++i) d[i] = m.log_pi[i] + lb[i];
  for (size_t t = 1; t < T; ++t) {
    for (size_t j = 0; j < k; ++j) {
      double best = kNegInf;
      for (size_t i = 0; i < k; ++i) {
        best = std::max(best, d[i] + m.log_a[i * k + j]);
      }
      nd[j] = best + lb[t * k + j];
    }
    d.swap(nd);
  }
  return *std::max_element(d.begin(), d.end());
}

template <typename Obs>
std::vector<int> ViterbiPath(const LogModel<Obs>& m,
                             const std::vector<double>& lb, size_t T) {
  const size_t k = m.k;
  std::vector<double> d(k), nd(k);
  std::vector<int> back(T * k, 0);
  for (size_t i = 0; i < k; ++i) d[i] = m.log_pi[i] + lb[i];
  for (size_t t = 1; t < T; ++t) {
    for (size_t j = 0; j < k; ++j) {
      double best = kNegInf;
      int arg = 0;
      for (size_t i = 0; i < k; ++i) {
        const double c = d[i] + m.log_a[i * k + j];
        if (c > best) {
          best = c;
          arg = static_cast<int>(i);
        }
      }
      nd[j] = best + lb[t * k + j];
      back[t * k + j] = arg;
    }
    d.swap(nd);
  }
  std::vector<int> path(T);
  path[T - 1] = static_cast<int>(std::max_element(d.begin(), d.end()) - d.begin());
  for (size_t t = T - 1; t > 0; --t) {
    path[t - 1] = back[t * k + static_cast<size_t>(path[t])];
  }
  return path;
}

template <typename Obs>
double PathLogJoint(const LogModel<Obs>& m, const std::vector<double>& lb,
                    const std::vector<int>& path) {
  const size_t k = m.k;
  if (path.empty()) return kNegInf;
  for (int s : path) {
    if (s < 0 || static_cast<size_t>(s) >= k) return kNegInf;
  }
  double v = m.log_pi[static_cast<size_t>(path[0])] +
             lb[static_cast<size_t>(path[0])];
  for (size_t t = 1; t < path.size(); ++t) {
    const size_t i = static_cast<size_t>(path[t - 1]);
    const size_t j = static_cast<size_t>(path[t]);
    v += m.log_a[i * k + j] + lb[t * k + j];
  }
  return v;
}

template <typename Obs>
double LogLikelihood(const LogModel<Obs>& m, const std::vector<double>& lb,
                     size_t T) {
  std::vector<double> alpha;
  LogForward(m, lb, T, &alpha);
  return LogSumExp(alpha.data() + (T - 1) * m.k, m.k);
}

template <typename Obs>
double Posterior(const LogModel<Obs>& m, const std::vector<double>& lb,
                 size_t T, std::vector<double>* gamma) {
  const size_t k = m.k;
  std::vector<double> alpha, beta;
  LogForward(m, lb, T, &alpha);
  LogBackward(m, lb, T - 1, &beta);
  gamma->assign(T * k, 0.0);
  for (size_t t = 0; t < T; ++t) {
    NormalizeRow(alpha.data() + t * k, beta.data() + t * k, k,
                 gamma->data() + t * k);
  }
  return LogSumExp(alpha.data() + (T - 1) * k, k);
}

template <typename Obs>
void FixedLagPosterior(const LogModel<Obs>& m, const std::vector<double>& lb,
                       size_t T, size_t lag, std::vector<double>* post) {
  const size_t k = m.k;
  std::vector<double> alpha, beta;
  LogForward(m, lb, T, &alpha);
  post->assign(T * k, 0.0);
  for (size_t t = 0; t < T; ++t) {
    const size_t last = std::min(t + lag, T - 1);
    // Backward over [t, last] only: beta restricted to the frames the
    // stream had seen when it labelled t.
    std::vector<double> b(k, 0.0), nb(k), tmp(k);
    for (size_t s = last; s > t; --s) {
      for (size_t i = 0; i < k; ++i) {
        for (size_t j = 0; j < k; ++j) {
          tmp[j] = m.log_a[i * k + j] + lb[s * k + j] + b[j];
        }
        nb[i] = LogSumExp(tmp.data(), k);
      }
      b.swap(nb);
    }
    NormalizeRow(alpha.data() + t * k, b.data(), k, post->data() + t * k);
  }
}

template <typename Obs>
double CorpusLogLikelihood(const HmmModel<Obs>& model,
                           const dhmm::hmm::Dataset<Obs>& data) {
  const LogModel<Obs> m(model);
  double ll = 0.0;
  for (const auto& seq : data) {
    ll += LogLikelihood(m, m.Table(seq.obs), seq.obs.size());
  }
  return ll;
}

bool IsArgMax(const double* row, size_t k, int label, double tol) {
  if (label < 0 || static_cast<size_t>(label) >= k) return false;
  double best = row[0];
  for (size_t i = 1; i < k; ++i) best = std::max(best, row[i]);
  return row[label] >= best - tol;
}

bool CloseRel(double x, double y, double tol) {
  return std::fabs(x - y) <= tol * std::max(1.0, std::fabs(y));
}

#define PERFBENCH_INSTANTIATE(Obs)                                           \
  template struct LogModel<Obs>;                                             \
  template double ViterbiLogJoint(const LogModel<Obs>&,                      \
                                  const std::vector<double>&, size_t);       \
  template std::vector<int> ViterbiPath(const LogModel<Obs>&,                \
                                        const std::vector<double>&, size_t); \
  template double PathLogJoint(const LogModel<Obs>&,                         \
                               const std::vector<double>&,                   \
                               const std::vector<int>&);                     \
  template double LogLikelihood(const LogModel<Obs>&,                        \
                                const std::vector<double>&, size_t);         \
  template double Posterior(const LogModel<Obs>&, const std::vector<double>&, \
                            size_t, std::vector<double>*);                   \
  template void FixedLagPosterior(const LogModel<Obs>&,                      \
                                  const std::vector<double>&, size_t, size_t, \
                                  std::vector<double>*);                     \
  template double CorpusLogLikelihood(const HmmModel<Obs>&,                  \
                                      const dhmm::hmm::Dataset<Obs>&);
PERFBENCH_INSTANTIATE(double)
PERFBENCH_INSTANTIATE(int)
#undef PERFBENCH_INSTANTIATE

namespace {

// Brute force over all k^T paths: the max log joint, log P(y), and the
// marginals P(x_t = i | y_0..y_last) for every t <= last (T x k).
template <typename Obs>
void Enumerate(const LogModel<Obs>& m, const std::vector<double>& lb,
               size_t T, double* max_joint, double* loglik,
               std::vector<double>* marg) {
  const size_t k = m.k;
  size_t paths = 1;
  for (size_t t = 0; t < T; ++t) paths *= k;
  *max_joint = kNegInf;
  *loglik = kNegInf;
  std::vector<double> lmarg(T * k, kNegInf);
  std::vector<int> path(T);
  for (size_t p = 0; p < paths; ++p) {
    size_t c = p;
    for (size_t t = 0; t < T; ++t) {
      path[t] = static_cast<int>(c % k);
      c /= k;
    }
    const double j = PathLogJoint(m, lb, path);
    *max_joint = std::max(*max_joint, j);
    *loglik = LogAddExp(*loglik, j);
    for (size_t t = 0; t < T; ++t) {
      double& cell = lmarg[t * k + static_cast<size_t>(path[t])];
      cell = LogAddExp(cell, j);
    }
  }
  marg->assign(T * k, 0.0);
  for (size_t i = 0; i < T * k; ++i) (*marg)[i] = std::exp(lmarg[i] - *loglik);
}

template <typename Obs>
std::string CheckOne(const HmmModel<Obs>& model, const std::vector<Obs>& y,
                     size_t lag) {
  const LogModel<Obs> m(model);
  const std::vector<double> lb = m.Table(y);
  const size_t T = y.size(), k = m.k;
  double bj = 0.0, bl = 0.0;
  std::vector<double> bm;
  Enumerate(m, lb, T, &bj, &bl, &bm);
  std::ostringstream err;
  if (!CloseRel(ViterbiLogJoint(m, lb, T), bj, 1e-12)) err << "viterbi ";
  if (!CloseRel(PathLogJoint(m, lb, ViterbiPath(m, lb, T)), bj, 1e-12)) {
    err << "viterbi-path ";
  }
  if (!CloseRel(LogLikelihood(m, lb, T), bl, 1e-12)) err << "loglik ";
  std::vector<double> gamma, fixed;
  if (!CloseRel(Posterior(m, lb, T, &gamma), bl, 1e-12)) err << "posterior-ll ";
  for (size_t i = 0; i < T * k; ++i) {
    if (std::fabs(gamma[i] - bm[i]) > 1e-12) {
      err << "posterior ";
      break;
    }
  }
  FixedLagPosterior(m, lb, T, lag, &fixed);
  for (size_t t = 0; t < T; ++t) {
    const size_t last = std::min(t + lag, T - 1);
    double pj = 0.0, pl = 0.0;
    std::vector<double> pm;
    Enumerate(m, lb, last + 1, &pj, &pl, &pm);
    for (size_t i = 0; i < k; ++i) {
      if (std::fabs(fixed[t * k + i] - pm[t * k + i]) > 1e-12) {
        err << "fixed-lag(t=" << t << ") ";
        t = T;
        break;
      }
    }
  }
  return err.str();
}

}  // namespace

std::string SelfCheck(uint64_t seed) {
  dhmm::prob::Rng rng(seed ^ 0x5EEDC0DEULL);
  for (size_t k = 1; k <= 3; ++k) {
    for (size_t T = 1; T <= 6; ++T) {
      const size_t lag = T % 3;
      dhmm::linalg::Vector mu(k), sigma(k);
      for (size_t i = 0; i < k; ++i) {
        mu[i] = rng.Gaussian();
        sigma[i] = rng.Uniform(0.5, 1.5);
      }
      HmmModel<double> g(
          rng.DirichletSymmetric(k, 1.0), rng.RandomStochasticMatrix(k, k, 1.0),
          std::make_unique<dhmm::prob::GaussianEmission>(mu, sigma));
      std::vector<double> gy(T);
      for (auto& v : gy) v = rng.Gaussian(0.0, 1.5);
      std::string e = CheckOne(g, gy, lag);
      if (!e.empty()) {
        return "gaussian k=" + std::to_string(k) + " T=" + std::to_string(T) +
               ": " + e;
      }
      const size_t vocab = 4;
      HmmModel<int> c(rng.DirichletSymmetric(k, 1.0),
                      rng.RandomStochasticMatrix(k, k, 1.0),
                      std::make_unique<dhmm::prob::CategoricalEmission>(
                          rng.RandomStochasticMatrix(k, vocab, 1.0)));
      std::vector<int> cy(T);
      for (auto& v : cy) v = static_cast<int>(rng.UniformInt(vocab));
      e = CheckOne(c, cy, lag);
      if (!e.empty()) {
        return "categorical k=" + std::to_string(k) +
               " T=" + std::to_string(T) + ": " + e;
      }
    }
  }
  return "";
}

}  // namespace perfbench::ref

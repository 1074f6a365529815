#include "nn/ops.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "nn/kernels.h"
#include "nn/kernels_dispatch.h"

// Tape-wiring layer: every op here (1) validates shapes, (2) calls its
// compute kernel from nn/kernels.h, and (3) — only when grad mode is on
// and some input requires grad — wires parents + a grad_fn closure that
// calls the matching backward kernels. Under NoGradGuard step (3) is
// skipped entirely: no closure, no parent references, and the output's
// storage comes from the thread-local BufferPool (see tensor.cc).
//
// The hot forward kernels go through kernels::Active() (runtime-dispatched
// scalar/AVX2, see kernels_dispatch.h). Every backward kernel is called
// directly — the grad path stays scalar and bitwise-unchanged.

namespace preqr::nn {

namespace {

// True if this op must record itself on the tape: grad mode is on and at
// least one input requires grad. The variadic form avoids materializing a
// parents vector on the (tape-off) fast path.
template <typename... Ts>
bool NeedsTape(const Ts&... parents) {
  return GradMode::enabled() && (... || parents.requires_grad());
}

bool NeedsTape(const std::vector<Tensor>& parents) {
  if (!GradMode::enabled()) return false;
  for (const auto& p : parents) {
    if (p.requires_grad()) return true;
  }
  return false;
}

// True if gradients should flow into `t`: it is a parameter/leaf that
// requires grad, or an intermediate whose own grad_fn needs them.
bool Wants(const std::shared_ptr<TensorImpl>& t) {
  return t->requires_grad || !t->parents.empty();
}

void AccumulateGrad(const std::shared_ptr<TensorImpl>& t, const float* g,
                    size_t n) {
  if (!Wants(t)) return;
  t->EnsureGrad();
  kernels::Accumulate(g, t->grad.data(), n);
}

// Records the op on the tape: marks the output as grad-carrying and
// attaches its parents and backward closure. Callers must have checked
// NeedsTape first.
void Wire(Tensor& out, std::vector<std::shared_ptr<TensorImpl>> parents,
          std::function<void(TensorImpl*)> grad_fn) {
  out.impl()->requires_grad = true;
  out.impl()->parents = std::move(parents);
  out.impl()->grad_fn = std::move(grad_fn);
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  PREQR_CHECK(a.shape() == b.shape());
  Tensor out = Tensor::Zeros(a.shape());
  kernels::AddForward(a.data(), b.data(), out.data(), out.vec().size());
  if (!NeedsTape(a, b)) return out;
  auto ai = a.impl(), bi = b.impl();
  Wire(out, {ai, bi}, [ai, bi](TensorImpl* self) {
    AccumulateGrad(ai, self->grad.data(), self->grad.size());
    AccumulateGrad(bi, self->grad.data(), self->grad.size());
  });
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  PREQR_CHECK(a.shape() == b.shape());
  Tensor out = Tensor::Zeros(a.shape());
  kernels::SubForward(a.data(), b.data(), out.data(), out.vec().size());
  if (!NeedsTape(a, b)) return out;
  auto ai = a.impl(), bi = b.impl();
  Wire(out, {ai, bi}, [ai, bi](TensorImpl* self) {
    AccumulateGrad(ai, self->grad.data(), self->grad.size());
    if (!Wants(bi)) return;
    bi->EnsureGrad();
    kernels::AccumulateNeg(self->grad.data(), bi->grad.data(),
                           self->grad.size());
  });
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  PREQR_CHECK(a.shape() == b.shape());
  Tensor out = Tensor::Zeros(a.shape());
  kernels::MulForward(a.data(), b.data(), out.data(), out.vec().size());
  if (!NeedsTape(a, b)) return out;
  auto ai = a.impl(), bi = b.impl();
  Wire(out, {ai, bi}, [ai, bi](TensorImpl* self) {
    const size_t n = self->grad.size();
    if (Wants(ai)) {
      ai->EnsureGrad();
      kernels::AccumulateMul(self->grad.data(), bi->data.data(),
                             ai->grad.data(), n);
    }
    if (Wants(bi)) {
      bi->EnsureGrad();
      kernels::AccumulateMul(self->grad.data(), ai->data.data(),
                             bi->grad.data(), n);
    }
  });
  return out;
}

Tensor Scale(const Tensor& a, float c) {
  Tensor out = Tensor::Zeros(a.shape());
  kernels::ScaleForward(a.data(), c, out.data(), out.vec().size());
  if (!NeedsTape(a)) return out;
  auto ai = a.impl();
  Wire(out, {ai}, [ai, c](TensorImpl* self) {
    if (!Wants(ai)) return;
    ai->EnsureGrad();
    kernels::AccumulateScaled(self->grad.data(), c, ai->grad.data(),
                              self->grad.size());
  });
  return out;
}

Tensor AddScalar(const Tensor& a, float c) {
  Tensor out = Tensor::Zeros(a.shape());
  kernels::AddScalarForward(a.data(), c, out.data(), out.vec().size());
  if (!NeedsTape(a)) return out;
  auto ai = a.impl();
  Wire(out, {ai}, [ai](TensorImpl* self) {
    AccumulateGrad(ai, self->grad.data(), self->grad.size());
  });
  return out;
}

Tensor AddBias(const Tensor& x, const Tensor& bias) {
  PREQR_CHECK_EQ(bias.ndim(), 1);
  const int d = bias.dim(0);
  PREQR_CHECK_EQ(x.dim(x.ndim() - 1), d);
  const size_t rows = x.vec().size() / static_cast<size_t>(d);
  Tensor out = Tensor::Zeros(x.shape());
  kernels::Active().AddBiasForward(x.data(), bias.data(), out.data(), rows, d);
  if (!NeedsTape(x, bias)) return out;
  auto xi = x.impl(), bi = bias.impl();
  Wire(out, {xi, bi}, [xi, bi, d](TensorImpl* self) {
    AccumulateGrad(xi, self->grad.data(), self->grad.size());
    if (!Wants(bi)) return;
    bi->EnsureGrad();
    const size_t rows2 = self->grad.size() / static_cast<size_t>(d);
    kernels::AddBiasBackwardBias(self->grad.data(), bi->grad.data(), rows2, d);
  });
  return out;
}

Tensor Relu(const Tensor& x) {
  Tensor out = Tensor::Zeros(x.shape());
  kernels::Active().ReluForward(x.data(), out.data(), out.vec().size());
  if (!NeedsTape(x)) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::ReluBackward(xi->data.data(), self->grad.data(), xi->grad.data(),
                          self->grad.size());
  });
  return out;
}

Tensor Gelu(const Tensor& x) {
  Tensor out = Tensor::Zeros(x.shape());
  kernels::Active().GeluForward(x.data(), out.data(), out.vec().size());
  if (!NeedsTape(x)) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::GeluBackward(xi->data.data(), self->grad.data(), xi->grad.data(),
                          self->grad.size());
  });
  return out;
}

Tensor Tanh(const Tensor& x) {
  Tensor out = Tensor::Zeros(x.shape());
  kernels::Active().TanhForward(x.data(), out.data(), out.vec().size());
  if (!NeedsTape(x)) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::TanhBackward(self->data.data(), self->grad.data(),
                          xi->grad.data(), self->grad.size());
  });
  return out;
}

Tensor Sigmoid(const Tensor& x) {
  Tensor out = Tensor::Zeros(x.shape());
  kernels::Active().SigmoidForward(x.data(), out.data(), out.vec().size());
  if (!NeedsTape(x)) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::SigmoidBackward(self->data.data(), self->grad.data(),
                             xi->grad.data(), self->grad.size());
  });
  return out;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  PREQR_CHECK_GE(a.ndim(), 2);
  PREQR_CHECK_EQ(b.ndim(), 2);
  // Leading dims of `a` flatten to independent rows, so [m,k] and batched
  // [B,T,k] inputs run the identical per-row kernel loop.
  const int k = a.dim(a.ndim() - 1), n = b.dim(1);
  PREQR_CHECK_EQ(b.dim(0), k);
  const int m = static_cast<int>(a.vec().size() / static_cast<size_t>(k));
  Shape shape = a.shape();
  shape[static_cast<size_t>(a.ndim() - 1)] = n;
  Tensor out = Tensor::Zeros(std::move(shape));
  kernels::Active().MatMulForward(a.data(), b.data(), out.data(), m, k, n);
  if (!NeedsTape(a, b)) return out;
  auto ai = a.impl(), bi = b.impl();
  Wire(out, {ai, bi}, [ai, bi, m, k, n](TensorImpl* self) {
    const float* g = self->grad.data();
    if (Wants(ai)) {
      ai->EnsureGrad();
      kernels::MatMulBackwardA(g, bi->data.data(), ai->grad.data(), m, k, n);
    }
    if (Wants(bi)) {
      bi->EnsureGrad();
      kernels::MatMulBackwardB(ai->data.data(), g, bi->grad.data(), m, k, n);
    }
  });
  return out;
}

Tensor Transpose(const Tensor& a) {
  PREQR_CHECK_EQ(a.ndim(), 2);
  const int m = a.dim(0), n = a.dim(1);
  Tensor out = Tensor::Zeros({n, m});
  kernels::TransposeForward(a.data(), out.data(), m, n);
  if (!NeedsTape(a)) return out;
  auto ai = a.impl();
  Wire(out, {ai}, [ai, m, n](TensorImpl* self) {
    if (!Wants(ai)) return;
    ai->EnsureGrad();
    kernels::TransposeBackward(self->grad.data(), ai->grad.data(), m, n);
  });
  return out;
}

Tensor SoftmaxLastDim(const Tensor& x) {
  const int d = x.dim(x.ndim() - 1);
  const size_t rows = x.vec().size() / static_cast<size_t>(d);
  Tensor out = Tensor::Zeros(x.shape());
  kernels::Active().SoftmaxForward(x.data(), out.data(), rows, d);
  if (!NeedsTape(x)) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi, d](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    const size_t rows2 = self->grad.size() / static_cast<size_t>(d);
    kernels::SoftmaxBackward(self->data.data(), self->grad.data(),
                             xi->grad.data(), rows2, d);
  });
  return out;
}

Tensor LayerNormOp(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                   float eps) {
  PREQR_CHECK_GE(x.ndim(), 2);
  const int d = x.dim(x.ndim() - 1);
  const int n = static_cast<int>(x.vec().size() / static_cast<size_t>(d));
  PREQR_CHECK_EQ(gamma.dim(0), d);
  PREQR_CHECK_EQ(beta.dim(0), d);
  Tensor out = Tensor::Zeros(x.shape());
  const bool tape = NeedsTape(x, gamma, beta);
  // xhat / inv_std are only saved when a backward pass will need them.
  std::shared_ptr<std::vector<float>> xhat_s, istd_s;
  if (tape) {
    xhat_s = std::make_shared<std::vector<float>>(
        static_cast<size_t>(n) * static_cast<size_t>(d));
    istd_s = std::make_shared<std::vector<float>>(static_cast<size_t>(n));
  }
  kernels::Active().LayerNormForward(x.data(), gamma.data(), beta.data(), eps,
                                     out.data(), tape ? xhat_s->data() : nullptr,
                                     tape ? istd_s->data() : nullptr, n, d);
  if (!tape) return out;
  auto xi = x.impl(), gi = gamma.impl(), bi = beta.impl();
  Wire(out, {xi, gi, bi}, [xi, gi, bi, xhat_s, istd_s, n, d](TensorImpl* self) {
    xi->EnsureGrad();
    gi->EnsureGrad();
    bi->EnsureGrad();
    kernels::LayerNormBackwardParams(self->grad.data(), xhat_s->data(),
                                     gi->grad.data(), bi->grad.data(), n, d);
    if (!Wants(xi)) return;
    kernels::LayerNormBackwardInput(self->grad.data(), xhat_s->data(),
                                    istd_s->data(), gi->data.data(),
                                    xi->grad.data(), n, d);
  });
  return out;
}

Tensor Sum(const Tensor& x) {
  Tensor out = Tensor::Zeros({1});
  out.vec()[0] = kernels::SumForward(x.data(), x.vec().size());
  if (!NeedsTape(x)) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::AccumulateConst(self->grad[0], xi->grad.data(), xi->grad.size());
  });
  return out;
}

Tensor Mean(const Tensor& x) {
  const float invn = 1.0f / static_cast<float>(x.size());
  Tensor out = Tensor::Zeros({1});
  out.vec()[0] = kernels::SumForward(x.data(), x.vec().size()) * invn;
  if (!NeedsTape(x)) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi, invn](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::AccumulateConst(self->grad[0] * invn, xi->grad.data(),
                             xi->grad.size());
  });
  return out;
}

Tensor MeanRows(const Tensor& x) {
  PREQR_CHECK_EQ(x.ndim(), 2);
  const int n = x.dim(0), d = x.dim(1);
  Tensor out = Tensor::Zeros({d});
  kernels::MeanRowsForward(x.data(), out.data(), n, d);
  if (!NeedsTape(x)) return out;
  const float invn = 1.0f / static_cast<float>(n);
  auto xi = x.impl();
  Wire(out, {xi}, [xi, n, d, invn](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::MeanRowsBackward(self->grad.data(), invn, xi->grad.data(), n, d);
  });
  return out;
}

Tensor MaxRows(const Tensor& x) {
  PREQR_CHECK_EQ(x.ndim(), 2);
  const int n = x.dim(0), d = x.dim(1);
  PREQR_CHECK_GT(n, 0);
  Tensor out = Tensor::Zeros({d});
  const bool tape = NeedsTape(x);
  std::shared_ptr<std::vector<int>> argmax;
  if (tape) {
    argmax = std::make_shared<std::vector<int>>(static_cast<size_t>(d), 0);
  }
  kernels::MaxRowsForward(x.data(), out.data(),
                          tape ? argmax->data() : nullptr, n, d);
  if (!tape) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi, argmax, d](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::MaxRowsBackward(self->grad.data(), argmax->data(),
                             xi->grad.data(), d);
  });
  return out;
}

Tensor MeanRowsSubset(const Tensor& x, const std::vector<int>& rows) {
  PREQR_CHECK_EQ(x.ndim(), 2);
  const int d = x.dim(1);
  if (rows.empty()) return Tensor::Zeros({d});
  const float inv = 1.0f / static_cast<float>(rows.size());
  Tensor out = Tensor::Zeros({d});
  kernels::MeanRowsSubsetForward(x.data(), rows, inv, out.data(), d);
  if (!NeedsTape(x)) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi, rows, d, inv](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::MeanRowsSubsetBackward(self->grad.data(), rows, inv,
                                    xi->grad.data(), d);
  });
  return out;
}

Tensor Reshape(const Tensor& x, Shape new_shape) {
  Index n = 1;
  for (int d : new_shape) n *= d;
  PREQR_CHECK_EQ(n, x.size());
  Tensor out = Tensor::Zeros(std::move(new_shape));
  kernels::Copy(x.data(), out.data(), x.vec().size());
  if (!NeedsTape(x)) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi](TensorImpl* self) {
    AccumulateGrad(xi, self->grad.data(), self->grad.size());
  });
  return out;
}

Tensor ConcatLastDim(const std::vector<Tensor>& xs) {
  PREQR_CHECK(!xs.empty());
  const int nd = xs[0].ndim();
  size_t rows = 1;
  for (int i = 0; i + 1 < nd; ++i) rows *= static_cast<size_t>(xs[0].dim(i));
  int total_d = 0;
  for (const auto& t : xs) {
    PREQR_CHECK_EQ(t.ndim(), nd);
    size_t r = 1;
    for (int i = 0; i + 1 < nd; ++i) r *= static_cast<size_t>(t.dim(i));
    PREQR_CHECK_EQ(r, rows);
    total_d += t.dim(nd - 1);
  }
  Shape shape = xs[0].shape();
  shape[static_cast<size_t>(nd - 1)] = total_d;
  Tensor out = Tensor::Zeros(std::move(shape));
  std::vector<int> widths;
  widths.reserve(xs.size());
  int off = 0;
  for (const auto& t : xs) {
    const int d = t.dim(nd - 1);
    widths.push_back(d);
    kernels::CopyRows(t.data(), static_cast<size_t>(d), out.data() + off,
                      static_cast<size_t>(total_d), rows,
                      static_cast<size_t>(d));
    off += d;
  }
  if (!NeedsTape(xs)) return out;
  std::vector<std::shared_ptr<TensorImpl>> impls;
  impls.reserve(xs.size());
  for (const auto& t : xs) impls.push_back(t.impl());
  Wire(out, impls, [impls, widths, rows, total_d](TensorImpl* self) {
    int off2 = 0;
    for (size_t t = 0; t < impls.size(); ++t) {
      const int d = widths[t];
      auto& ti = impls[t];
      if (!Wants(ti)) {
        off2 += d;
        continue;
      }
      ti->EnsureGrad();
      kernels::AccumulateRows(self->grad.data() + off2,
                              static_cast<size_t>(total_d), ti->grad.data(),
                              static_cast<size_t>(d), rows,
                              static_cast<size_t>(d));
      off2 += d;
    }
  });
  return out;
}

Tensor ConcatRows(const std::vector<Tensor>& xs) {
  PREQR_CHECK(!xs.empty());
  size_t inner = xs[0].vec().size() / static_cast<size_t>(xs[0].dim(0));
  int total_rows = 0;
  for (const auto& t : xs) {
    PREQR_CHECK_EQ(t.vec().size() / static_cast<size_t>(t.dim(0)), inner);
    total_rows += t.dim(0);
  }
  Shape shape = xs[0].shape();
  shape[0] = total_rows;
  Tensor out = Tensor::Zeros(std::move(shape));
  size_t off = 0;
  for (const auto& t : xs) {
    kernels::Copy(t.data(), out.data() + off, t.vec().size());
    off += t.vec().size();
  }
  if (!NeedsTape(xs)) return out;
  std::vector<std::shared_ptr<TensorImpl>> impls;
  std::vector<size_t> sizes;
  for (const auto& t : xs) {
    impls.push_back(t.impl());
    sizes.push_back(t.vec().size());
  }
  Wire(out, impls, [impls, sizes](TensorImpl* self) {
    size_t off2 = 0;
    for (size_t t = 0; t < impls.size(); ++t) {
      AccumulateGrad(impls[t], self->grad.data() + off2, sizes[t]);
      off2 += sizes[t];
    }
  });
  return out;
}

Tensor SliceLastDim(const Tensor& x, int start, int len) {
  const int nd = x.ndim();
  const int d = x.dim(nd - 1);
  PREQR_CHECK_GE(start, 0);
  PREQR_CHECK_LE(start + len, d);
  const size_t rows = x.vec().size() / static_cast<size_t>(d);
  Shape shape = x.shape();
  shape[static_cast<size_t>(nd - 1)] = len;
  Tensor out = Tensor::Zeros(std::move(shape));
  kernels::CopyRows(x.data() + start, static_cast<size_t>(d), out.data(),
                    static_cast<size_t>(len), rows, static_cast<size_t>(len));
  if (!NeedsTape(x)) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi, start, len, d, rows](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::AccumulateRows(self->grad.data(), static_cast<size_t>(len),
                            xi->grad.data() + start, static_cast<size_t>(d),
                            rows, static_cast<size_t>(len));
  });
  return out;
}

Tensor SliceRows(const Tensor& x, int start, int len) {
  const int n = x.dim(0);
  PREQR_CHECK_GE(start, 0);
  PREQR_CHECK_LE(start + len, n);
  const size_t inner = x.vec().size() / static_cast<size_t>(n);
  Shape shape = x.shape();
  shape[0] = len;
  Tensor out = Tensor::Zeros(std::move(shape));
  kernels::Copy(x.data() + static_cast<size_t>(start) * inner, out.data(),
                static_cast<size_t>(len) * inner);
  if (!NeedsTape(x)) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi, start, inner](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::Accumulate(self->grad.data(),
                        xi->grad.data() + static_cast<size_t>(start) * inner,
                        self->grad.size());
  });
  return out;
}

Tensor Gather(const Tensor& weight, const std::vector<int>& ids) {
  PREQR_CHECK_EQ(weight.ndim(), 2);
  const int v = weight.dim(0), d = weight.dim(1);
  const int n = static_cast<int>(ids.size());
  Tensor out = Tensor::Zeros({n, d});
  kernels::GatherForward(weight.data(), v, d, ids, out.data());
  if (!NeedsTape(weight)) return out;
  auto wi = weight.impl();
  Wire(out, {wi}, [wi, ids, d](TensorImpl* self) {
    if (!Wants(wi)) return;
    wi->EnsureGrad();
    kernels::GatherBackward(self->grad.data(), ids, d, wi->grad.data());
  });
  return out;
}

Tensor SparseAggregate(const Tensor& h, const std::vector<Edge>& edges,
                       const std::vector<float>& norm) {
  PREQR_CHECK_EQ(h.ndim(), 2);
  PREQR_CHECK_EQ(edges.size(), norm.size());
  const int n = h.dim(0), d = h.dim(1);
  Tensor out = Tensor::Zeros({n, d});
  kernels::SparseAggregateForward(h.data(), edges, norm, out.data(), d);
  if (!NeedsTape(h)) return out;
  auto hi = h.impl();
  Wire(out, {hi}, [hi, edges, norm, d](TensorImpl* self) {
    if (!Wants(hi)) return;
    hi->EnsureGrad();
    kernels::SparseAggregateBackward(self->grad.data(), edges, norm,
                                     hi->grad.data(), d);
  });
  return out;
}

Tensor CrossEntropy(const Tensor& logits, const std::vector<int>& targets,
                    int ignore_index) {
  PREQR_CHECK_EQ(logits.ndim(), 2);
  const int n = logits.dim(0), c = logits.dim(1);
  PREQR_CHECK_EQ(static_cast<int>(targets.size()), n);
  // The kernel needs the probs buffer as scratch either way; it is only
  // *retained* (captured by the closure) when backward will run.
  auto probs = std::make_shared<std::vector<float>>(
      static_cast<size_t>(n) * static_cast<size_t>(c));
  int valid = 0;
  Tensor out = Tensor::Zeros({1});
  out.vec()[0] = kernels::CrossEntropyForward(
      logits.data(), targets, ignore_index, n, c, probs->data(), &valid);
  if (!NeedsTape(logits)) return out;
  auto li = logits.impl();
  Wire(out, {li},
       [li, probs, targets, ignore_index, n, c, valid](TensorImpl* self) {
         if (valid == 0 || !Wants(li)) return;
         li->EnsureGrad();
         const float g = self->grad[0] / static_cast<float>(valid);
         kernels::CrossEntropyBackward(g, probs->data(), targets,
                                       ignore_index, n, c, li->grad.data());
       });
  return out;
}

Tensor MseLoss(const Tensor& pred, const std::vector<float>& target) {
  PREQR_CHECK_EQ(pred.vec().size(), target.size());
  const size_t n = target.size();
  Tensor out = Tensor::Zeros({1});
  out.vec()[0] = kernels::MseForward(pred.data(), target);
  if (!NeedsTape(pred)) return out;
  auto pi = pred.impl();
  Wire(out, {pi}, [pi, target, n](TensorImpl* self) {
    if (!Wants(pi)) return;
    pi->EnsureGrad();
    const float g = self->grad[0] * 2.0f / static_cast<float>(n);
    kernels::MseBackward(g, pi->data.data(), target, pi->grad.data());
  });
  return out;
}

Tensor Dropout(const Tensor& x, float p, Rng& rng, bool train) {
  if (!train || p <= 0.0f) return x;
  const float scale = 1.0f / (1.0f - p);
  const bool tape = NeedsTape(x);
  // The rng is consumed identically with or without the tape; only the
  // mask's retention differs.
  std::shared_ptr<std::vector<float>> mask;
  if (tape) mask = std::make_shared<std::vector<float>>(x.vec().size());
  Tensor out = Tensor::Zeros(x.shape());
  kernels::DropoutForward(x.data(), p, scale, rng, out.data(),
                          tape ? mask->data() : nullptr, out.vec().size());
  if (!tape) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi, mask](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::DropoutBackward(self->grad.data(), mask->data(), xi->grad.data(),
                             self->grad.size());
  });
  return out;
}

// --- Batched / masked ops -------------------------------------------------

namespace {

// Shared shape bookkeeping for the [B, T, ...] ops: validates the batch
// layout and that lengths fit inside the padded extent.
void CheckBatchLengths(const Tensor& x, const std::vector<int>& lengths) {
  PREQR_CHECK_EQ(x.ndim(), 3);
  PREQR_CHECK_EQ(static_cast<int>(lengths.size()), x.dim(0));
  for (int len : lengths) {
    PREQR_CHECK_GE(len, 0);
    PREQR_CHECK_LE(len, x.dim(1));
  }
}

}  // namespace

Tensor BatchedMatMulNT(const Tensor& a, const Tensor& b,
                       const std::vector<int>& lengths) {
  CheckBatchLengths(a, lengths);
  PREQR_CHECK(a.shape() == b.shape());
  const int bsz = a.dim(0), t = a.dim(1), k = a.dim(2);
  Tensor out = Tensor::Zeros({bsz, t, t});
  kernels::Active().BatchedMatMulNTForward(a.data(), b.data(), out.data(), bsz,
                                           t, k, lengths.data());
  if (!NeedsTape(a, b)) return out;
  auto ai = a.impl(), bi = b.impl();
  Wire(out, {ai, bi}, [ai, bi, bsz, t, k, lengths](TensorImpl* self) {
    const float* g = self->grad.data();
    if (Wants(ai)) {
      ai->EnsureGrad();
      kernels::BatchedMatMulNTBackwardA(g, bi->data.data(), ai->grad.data(),
                                        bsz, t, k, lengths.data());
    }
    if (Wants(bi)) {
      bi->EnsureGrad();
      kernels::BatchedMatMulNTBackwardB(g, ai->data.data(), bi->grad.data(),
                                        bsz, t, k, lengths.data());
    }
  });
  return out;
}

Tensor BatchedMatMulNN(const Tensor& w, const Tensor& v,
                       const std::vector<int>& lengths) {
  CheckBatchLengths(v, lengths);
  PREQR_CHECK_EQ(w.ndim(), 3);
  PREQR_CHECK_EQ(w.dim(0), v.dim(0));
  PREQR_CHECK_EQ(w.dim(1), v.dim(1));
  PREQR_CHECK_EQ(w.dim(2), v.dim(1));
  const int bsz = v.dim(0), t = v.dim(1), dv = v.dim(2);
  Tensor out = Tensor::Zeros({bsz, t, dv});
  kernels::Active().BatchedMatMulNNForward(w.data(), v.data(), out.data(), bsz,
                                           t, dv, lengths.data());
  if (!NeedsTape(w, v)) return out;
  auto wi = w.impl(), vi = v.impl();
  Wire(out, {wi, vi}, [wi, vi, bsz, t, dv, lengths](TensorImpl* self) {
    const float* g = self->grad.data();
    if (Wants(wi)) {
      wi->EnsureGrad();
      kernels::BatchedMatMulNNBackwardW(g, vi->data.data(), wi->grad.data(),
                                        bsz, t, dv, lengths.data());
    }
    if (Wants(vi)) {
      vi->EnsureGrad();
      kernels::BatchedMatMulNNBackwardV(wi->data.data(), g, vi->grad.data(),
                                        bsz, t, dv, lengths.data());
    }
  });
  return out;
}

Tensor MaskedSoftmaxLastDim(const Tensor& x, const std::vector<int>& lengths) {
  CheckBatchLengths(x, lengths);
  PREQR_CHECK_EQ(x.dim(1), x.dim(2));
  const int bsz = x.dim(0), t = x.dim(1);
  Tensor out = Tensor::Zeros(x.shape());
  kernels::Active().MaskedSoftmaxForward(x.data(), out.data(), bsz, t,
                                         lengths.data());
  if (!NeedsTape(x)) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi, bsz, t, lengths](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::MaskedSoftmaxBackward(self->data.data(), self->grad.data(),
                                   xi->grad.data(), bsz, t, lengths.data());
  });
  return out;
}

Tensor MaskedLayerNorm(const Tensor& x, const Tensor& gamma,
                       const Tensor& beta, const std::vector<int>& lengths,
                       float eps) {
  CheckBatchLengths(x, lengths);
  const int bsz = x.dim(0), t = x.dim(1), d = x.dim(2);
  PREQR_CHECK_EQ(gamma.dim(0), d);
  PREQR_CHECK_EQ(beta.dim(0), d);
  Tensor out = Tensor::Zeros(x.shape());
  const bool tape = NeedsTape(x, gamma, beta);
  std::shared_ptr<std::vector<float>> xhat_s, istd_s;
  if (tape) {
    xhat_s = std::make_shared<std::vector<float>>(x.vec().size());
    istd_s = std::make_shared<std::vector<float>>(
        static_cast<size_t>(bsz) * static_cast<size_t>(t));
  }
  kernels::Active().MaskedLayerNormForward(
      x.data(), gamma.data(), beta.data(), eps, out.data(),
      tape ? xhat_s->data() : nullptr, tape ? istd_s->data() : nullptr, bsz,
      t, d, lengths.data());
  if (!tape) return out;
  auto xi = x.impl(), gi = gamma.impl(), bi = beta.impl();
  Wire(out, {xi, gi, bi},
       [xi, gi, bi, xhat_s, istd_s, bsz, t, d, lengths](TensorImpl* self) {
         gi->EnsureGrad();
         bi->EnsureGrad();
         kernels::MaskedLayerNormBackwardParams(
             self->grad.data(), xhat_s->data(), gi->grad.data(),
             bi->grad.data(), bsz, t, d, lengths.data());
         if (!Wants(xi)) return;
         xi->EnsureGrad();
         kernels::MaskedLayerNormBackwardInput(
             self->grad.data(), xhat_s->data(), istd_s->data(),
             gi->data.data(), xi->grad.data(), bsz, t, d, lengths.data());
       });
  return out;
}

Tensor MaskedCrossEntropy(const Tensor& logits, const std::vector<int>& targets,
                          const std::vector<int>& lengths, int ignore_index,
                          std::vector<float>* example_loss) {
  CheckBatchLengths(logits, lengths);
  const int bsz = logits.dim(0), t = logits.dim(1), c = logits.dim(2);
  PREQR_CHECK_EQ(targets.size(), static_cast<size_t>(bsz) * t);
  auto probs = std::make_shared<std::vector<float>>(logits.vec().size());
  auto valid = std::make_shared<std::vector<int>>();
  Tensor out = Tensor::Zeros({1});
  out.vec()[0] = kernels::MaskedCrossEntropyForward(
      logits.data(), targets, ignore_index, bsz, t, c, lengths.data(),
      probs->data(), valid.get(), example_loss);
  if (!NeedsTape(logits)) return out;
  auto li = logits.impl();
  Wire(out, {li},
       [li, probs, valid, targets, lengths, ignore_index, bsz, t,
        c](TensorImpl* self) {
         if (!Wants(li)) return;
         li->EnsureGrad();
         kernels::MaskedCrossEntropyBackward(
             self->grad[0], probs->data(), targets, ignore_index, bsz, t, c,
             lengths.data(), *valid, li->grad.data());
       });
  return out;
}

Tensor MaskedDropout(const Tensor& x, float p,
                     const std::vector<uint64_t>& seeds,
                     const std::vector<int>& lengths, bool train) {
  if (!train || p <= 0.0f) return x;
  CheckBatchLengths(x, lengths);
  const int bsz = x.dim(0), t = x.dim(1), d = x.dim(2);
  PREQR_CHECK_EQ(seeds.size(), static_cast<size_t>(bsz));
  const float scale = 1.0f / (1.0f - p);
  const bool tape = NeedsTape(x);
  std::shared_ptr<std::vector<float>> mask;
  if (tape) mask = std::make_shared<std::vector<float>>(x.vec().size());
  Tensor out = Tensor::Zeros(x.shape());
  kernels::MaskedDropoutForward(x.data(), p, scale, seeds.data(), out.data(),
                                tape ? mask->data() : nullptr, bsz, t, d,
                                lengths.data());
  if (!tape) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi, mask](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    // Pad mask entries are zero, so the generic dropout backward already
    // keeps pad gradients at exactly zero.
    kernels::DropoutBackward(self->grad.data(), mask->data(), xi->grad.data(),
                             self->grad.size());
  });
  return out;
}

Tensor SliceExample(const Tensor& x, int b, int len) {
  PREQR_CHECK_EQ(x.ndim(), 3);
  PREQR_CHECK_GE(b, 0);
  PREQR_CHECK_LT(b, x.dim(0));
  PREQR_CHECK_GE(len, 0);
  PREQR_CHECK_LE(len, x.dim(1));
  const int t = x.dim(1), d = x.dim(2);
  const size_t off = static_cast<size_t>(b) * t * d;
  Tensor out = Tensor::Zeros({len, d});
  kernels::Copy(x.data() + off, out.data(),
                static_cast<size_t>(len) * static_cast<size_t>(d));
  if (!NeedsTape(x)) return out;
  auto xi = x.impl();
  Wire(out, {xi}, [xi, off](TensorImpl* self) {
    if (!Wants(xi)) return;
    xi->EnsureGrad();
    kernels::Accumulate(self->grad.data(), xi->grad.data() + off,
                        self->grad.size());
  });
  return out;
}

Tensor PadExamples(const std::vector<Tensor>& xs, int t_max) {
  PREQR_CHECK(!xs.empty());
  const int bsz = static_cast<int>(xs.size());
  const int d = xs[0].dim(1);
  int t = t_max;
  for (const auto& x : xs) {
    PREQR_CHECK_EQ(x.ndim(), 2);
    PREQR_CHECK_EQ(x.dim(1), d);
    t = std::max(t, x.dim(0));
  }
  Tensor out = Tensor::Zeros({bsz, t, d});
  for (int b = 0; b < bsz; ++b) {
    kernels::Copy(xs[static_cast<size_t>(b)].data(),
                  out.data() + static_cast<size_t>(b) * t * d,
                  xs[static_cast<size_t>(b)].vec().size());
  }
  if (!NeedsTape(xs)) return out;
  std::vector<std::shared_ptr<TensorImpl>> impls;
  impls.reserve(xs.size());
  for (const auto& x : xs) impls.push_back(x.impl());
  Wire(out, impls, [impls, t, d](TensorImpl* self) {
    for (size_t b = 0; b < impls.size(); ++b) {
      AccumulateGrad(impls[b], self->grad.data() + b * static_cast<size_t>(t) * d,
                     impls[b]->data.size());
    }
  });
  return out;
}

}  // namespace preqr::nn

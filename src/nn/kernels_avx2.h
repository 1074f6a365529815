#ifndef PREQR_NN_KERNELS_AVX2_H_
#define PREQR_NN_KERNELS_AVX2_H_

#include <cstddef>

// Declarations for the AVX2/FMA kernel backend. Definitions live in
// kernels_avx2.cc, which is compiled with -mavx2 -mfma only when CMake's
// toolchain check passes (PREQR_HAVE_AVX2); callers must gate on
// kernels::Avx2Supported() before invoking any of these.
namespace preqr::nn::kernels::avx2 {

void MatMulForward(const float* a, const float* b, float* out, int m, int k,
                   int n);
void AddBiasForward(const float* x, const float* bias, float* out,
                    size_t rows, int d);
void ReluForward(const float* x, float* out, size_t n);
void GeluForward(const float* x, float* out, size_t n);
void TanhForward(const float* x, float* out, size_t n);
void SigmoidForward(const float* x, float* out, size_t n);
void SoftmaxForward(const float* x, float* out, size_t rows, int d);
void LayerNormForward(const float* x, const float* gamma, const float* beta,
                      float eps, float* out, float* xhat, float* inv_std,
                      int n, int d);
void BatchedMatMulNTForward(const float* a, const float* bt, float* out,
                            int bsz, int t, int k, const int* lengths);
void BatchedMatMulNNForward(const float* w, const float* v, float* out,
                            int bsz, int t, int dv, const int* lengths);
void MaskedSoftmaxForward(const float* x, float* out, int bsz, int t,
                          const int* lengths);
void MaskedLayerNormForward(const float* x, const float* gamma,
                            const float* beta, float eps, float* out,
                            float* xhat, float* inv_std, int bsz, int t,
                            int d, const int* lengths);

}  // namespace preqr::nn::kernels::avx2

#endif  // PREQR_NN_KERNELS_AVX2_H_

#include "nn/kernels_dispatch.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "nn/kernels.h"
#if defined(PREQR_HAVE_AVX2)
#include "nn/kernels_avx2.h"
#endif

namespace preqr::nn::kernels {
namespace {

const KernelTable kScalarTable = {
    "scalar",
    &MatMulForward,
    &AddBiasForward,
    &ReluForward,
    &GeluForward,
    &TanhForward,
    &SigmoidForward,
    &SoftmaxForward,
    &LayerNormForward,
    &BatchedMatMulNTForward,
    &BatchedMatMulNNForward,
    &MaskedSoftmaxForward,
    &MaskedLayerNormForward,
};

#if defined(PREQR_HAVE_AVX2)
const KernelTable kAvx2Table = {
    "avx2",
    &avx2::MatMulForward,
    &avx2::AddBiasForward,
    &avx2::ReluForward,
    &avx2::GeluForward,
    &avx2::TanhForward,
    &avx2::SigmoidForward,
    &avx2::SoftmaxForward,
    &avx2::LayerNormForward,
    &avx2::BatchedMatMulNTForward,
    &avx2::BatchedMatMulNNForward,
    &avx2::MaskedSoftmaxForward,
    &avx2::MaskedLayerNormForward,
};
#endif

bool CpuHasAvx2Fma() {
#if defined(PREQR_HAVE_AVX2) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const KernelTable* SelectAtStartup() {
  const char* env = std::getenv("PREQR_KERNEL_IMPL");
  if (env != nullptr && *env != '\0') {
    if (std::strcmp(env, "scalar") == 0) return &kScalarTable;
    if (std::strcmp(env, "avx2") == 0) {
      if (const KernelTable* t = Avx2Table()) return t;
      std::fprintf(stderr,
                   "[kernels] PREQR_KERNEL_IMPL=avx2 requested but the AVX2 "
                   "backend is unavailable; falling back to scalar\n");
      return &kScalarTable;
    }
    std::fprintf(stderr,
                 "[kernels] unknown PREQR_KERNEL_IMPL='%s' (want scalar|avx2);"
                 " using the CPUID default\n",
                 env);
  }
  if (const KernelTable* t = Avx2Table()) return t;
  return &kScalarTable;
}

std::atomic<const KernelTable*>& ActiveSlot() {
  static std::atomic<const KernelTable*> slot{SelectAtStartup()};
  return slot;
}

}  // namespace

const KernelTable& ScalarTable() { return kScalarTable; }

const KernelTable* Avx2Table() {
#if defined(PREQR_HAVE_AVX2)
  static const bool supported = CpuHasAvx2Fma();
  return supported ? &kAvx2Table : nullptr;
#else
  return nullptr;
#endif
}

bool Avx2Supported() { return Avx2Table() != nullptr; }

const KernelTable& Active() {
  return *ActiveSlot().load(std::memory_order_relaxed);
}

const char* ActiveImplName() { return Active().name; }

bool SetActiveImpl(const char* name) {
  if (name == nullptr) return false;
  if (std::strcmp(name, "scalar") == 0) {
    ActiveSlot().store(&kScalarTable, std::memory_order_relaxed);
    return true;
  }
  if (std::strcmp(name, "avx2") == 0) {
    if (const KernelTable* t = Avx2Table()) {
      ActiveSlot().store(t, std::memory_order_relaxed);
      return true;
    }
    return false;
  }
  return false;
}

}  // namespace preqr::nn::kernels

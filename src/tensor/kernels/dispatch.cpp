// Runtime ISA selection for the kernel registry (see kernels.hpp).
//
// Detection runs once (function-local static): CPUID feature bits plus an
// XGETBV check that the OS actually saves ymm state — AVX2 reported by
// CPUID is not usable unless XCR0 enables the SSE+AVX state components.
// MUPOD_FORCE_KERNEL overrides the startup choice (tests force the scalar
// baseline this way; the sanitizer lanes run the whole battery under it);
// set_kernel_isa() overrides it in-process for per-ISA test loops.
#include "tensor/kernels/kernels.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.hpp"
#include "tensor/kernels/kernels_internal.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace mupod {
namespace {

#if defined(__x86_64__) || defined(__i386__)
bool os_saves_ymm() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  const bool avx = (ecx & (1u << 28)) != 0;
  if (!osxsave || !avx) return false;
  unsigned lo = 0, hi = 0;
  __asm__ __volatile__("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  return (lo & 0x6u) == 0x6u;  // XMM + YMM state enabled
}

bool cpu_has_avx2() {
  if (!os_saves_ymm()) return false;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & (1u << 5)) != 0;
}

bool cpu_has_fma() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  return (ecx & (1u << 12)) != 0;
}
#endif

KernelIsa detect_isa() {
#if defined(MUPOD_HAVE_AVX2_KERNELS)
  if (cpu_has_avx2()) return cpu_has_fma() ? KernelIsa::kAvx2Fma : KernelIsa::kAvx2;
#endif
  return KernelIsa::kScalar;
}

KernelIsa clamp_available(KernelIsa isa) {
  return kernel_isa_available(isa) ? isa : detected_kernel_isa();
}

KernelIsa startup_isa() {
  if (const char* force = std::getenv("MUPOD_FORCE_KERNEL"); force != nullptr) {
    KernelIsa want;
    if (parse_kernel_isa(force, &want)) return clamp_available(want);
  }
  return detected_kernel_isa();
}

// Relaxed atomic: reads are per-call cheap, writes happen at startup or
// between forwards only.
std::atomic<KernelIsa>& active_isa() {
  static std::atomic<KernelIsa> isa{startup_isa()};
  return isa;
}

void mirror_isa_gauge(KernelIsa isa) {
  if (metrics_enabled()) {
    static Gauge* g = &metrics().gauge("tensor.kernel.isa");
    g->set(static_cast<std::int64_t>(isa));
  }
}

}  // namespace

const char* kernel_isa_name(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar: return "scalar";
    case KernelIsa::kAvx2: return "avx2";
    case KernelIsa::kAvx2Fma: return "avx2fma";
  }
  return "?";
}

bool parse_kernel_isa(const char* s, KernelIsa* out) {
  if (s == nullptr || out == nullptr) return false;
  if (std::strcmp(s, "scalar") == 0) {
    *out = KernelIsa::kScalar;
    return true;
  }
  if (std::strcmp(s, "avx2") == 0) {
    *out = KernelIsa::kAvx2;
    return true;
  }
  if (std::strcmp(s, "avx2fma") == 0 || std::strcmp(s, "avx2_fma") == 0 ||
      std::strcmp(s, "fma") == 0) {
    *out = KernelIsa::kAvx2Fma;
    return true;
  }
  return false;
}

KernelIsa detected_kernel_isa() {
  static const KernelIsa isa = detect_isa();
  return isa;
}

bool kernel_isa_available(KernelIsa isa) {
  if (isa == KernelIsa::kScalar) return true;
#if defined(MUPOD_HAVE_AVX2_KERNELS)
  const KernelIsa best = detected_kernel_isa();
  // kAvx2 runs wherever kAvx2Fma does (FMA implies AVX2 here); kAvx2Fma
  // needs the full detection.
  if (isa == KernelIsa::kAvx2) return best != KernelIsa::kScalar;
  return best == KernelIsa::kAvx2Fma;
#else
  (void)isa;
  return false;
#endif
}

KernelIsa kernel_isa() { return active_isa().load(std::memory_order_relaxed); }

void set_kernel_isa(KernelIsa isa) {
  const KernelIsa eff = clamp_available(isa);
  active_isa().store(eff, std::memory_order_relaxed);
  mirror_isa_gauge(eff);
}

const KernelRegistry& kernel_registry_for(KernelIsa isa) {
  switch (clamp_available(isa)) {
    case KernelIsa::kScalar: break;
#if defined(MUPOD_HAVE_AVX2_KERNELS)
    case KernelIsa::kAvx2: return internal::avx2_kernel_registry();
    case KernelIsa::kAvx2Fma: return internal::avx2_fma_kernel_registry();
#else
    default: break;
#endif
  }
  return internal::scalar_kernel_registry();
}

const KernelRegistry& kernel_registry() { return kernel_registry_for(kernel_isa()); }

}  // namespace mupod

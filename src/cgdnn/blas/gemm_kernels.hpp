// GEMM kernel primitives (pack routines, microkernel, blocking nest,
// small-path row kernels) behind the gemm/gemv/ger front-ends in gemm.cpp.
// They live in a header so one translation unit per target ISA can compile
// them.
//
// The reduction-order-sensitive kernels (MicroKernel, DotRowKernel,
// AxpyRowKernel) are marked noinline: each instantiation is ODR-merged to
// one out-of-line definition, so the vectorizer cannot specialize the
// reduction tree differently per call site.
#pragma once

#include <algorithm>

#include "cgdnn/blas/blas.hpp"
#include "cgdnn/core/arena.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define CGDNN_KERNEL_NOINLINE __attribute__((noinline))
#else
#define CGDNN_KERNEL_NOINLINE
#endif

namespace cgdnn::blas::kernels {

constexpr index_t RoundUpTo(index_t v, index_t to) {
  return (v + to - 1) / to * to;
}

/// One grow-only pack arena per OS thread for the packed GEMM (defined in
/// gemm.cpp). A single allocation on the thread's first packed call, then
/// reused across calls, layers and samples.
ThreadArena& PackArena();

/// Small-path K blocking (keeps the NN working set inside L1/L2).
constexpr index_t kSmallGemmBlockK = 256;

/// m is deliberately not consulted: a row-partitioned call must take the
/// same branch as the full-batch call (see kGemmPackMinWork).
template <typename Dtype>
bool UsePackedPath(index_t n, index_t k) {
  return n >= GemmBlocking<Dtype>::kNR && n * k >= kGemmPackMinWork;
}

template <typename Dtype>
void ScaleC(index_t m, index_t n, Dtype beta, Dtype* c) {
  const index_t total = m * n;
  if (beta == Dtype(0)) {
    std::fill(c, c + total, Dtype(0));
  } else if (beta != Dtype(1)) {
    for (index_t i = 0; i < total; ++i) c[i] *= beta;
  }
}

// ---- packed-path primitives ------------------------------------------------

/// Packs the mc x kc slab of op(A) starting at (row i0, depth p0) into
/// MR-wide row panels: panel p holds rows [p*MR, p*MR+MR), laid out kk-major
/// with MR contiguous values per kk. alpha is folded in here; rows past mc
/// are zero-padded so the microkernel never branches on the row remainder.
template <typename Dtype>
void PackASlab(bool trans, const Dtype* a, index_t lda, index_t i0,
               index_t p0, index_t mc, index_t kc, Dtype alpha, Dtype* pack) {
  constexpr index_t MR = GemmBlocking<Dtype>::kMR;
  for (index_t ir = 0; ir < mc; ir += MR) {
    const index_t mr = std::min(MR, mc - ir);
    for (index_t kk = 0; kk < kc; ++kk) {
      if (trans) {
        // op(A)(i, kk) = a[kk * lda + i]
        const Dtype* src = a + (p0 + kk) * lda + i0 + ir;
        for (index_t i = 0; i < mr; ++i) pack[i] = alpha * src[i];
      } else {
        // op(A)(i, kk) = a[i * lda + kk]
        const Dtype* src = a + (i0 + ir) * lda + p0 + kk;
        for (index_t i = 0; i < mr; ++i) pack[i] = alpha * src[i * lda];
      }
      for (index_t i = mr; i < MR; ++i) pack[i] = Dtype(0);
      pack += MR;
    }
  }
}

/// Packs the kc x nc slab of op(B) starting at (depth p0, col j0) into
/// NR-wide column panels (kk-major, NR contiguous values per kk), columns
/// past nc zero-padded.
template <typename Dtype>
void PackBSlab(bool trans, const Dtype* b, index_t ldb, index_t p0,
               index_t j0, index_t kc, index_t nc, Dtype* pack) {
  constexpr index_t NR = GemmBlocking<Dtype>::kNR;
  for (index_t jr = 0; jr < nc; jr += NR) {
    const index_t nr = std::min(NR, nc - jr);
    for (index_t kk = 0; kk < kc; ++kk) {
      if (trans) {
        // op(B)(kk, j) = b[j * ldb + kk]
        const Dtype* src = b + (j0 + jr) * ldb + p0 + kk;
        for (index_t j = 0; j < nr; ++j) pack[j] = src[j * ldb];
      } else {
        // op(B)(kk, j) = b[kk * ldb + j]
        const Dtype* src = b + (p0 + kk) * ldb + j0 + jr;
        for (index_t j = 0; j < nr; ++j) pack[j] = src[j];
      }
      for (index_t j = nr; j < NR; ++j) pack[j] = Dtype(0);
      pack += NR;
    }
  }
}

/// The single inner kernel: accumulates op(A)op(B) over one KC panel into an
/// MR x NR register tile, then merges the tile into C. `beta` applies to
/// the destination exactly once per (jc, C-tile) — the caller passes the
/// user's beta for the first KC panel and 1 afterwards. The kk loop is
/// branch-free; edge handling happens only in the store, on padded tiles.
template <typename Dtype>
CGDNN_KERNEL_NOINLINE void MicroKernel(index_t kc, const Dtype* __restrict ap,
                                       const Dtype* __restrict bp,
                                       Dtype* __restrict c, index_t ldc,
                                       index_t mr, index_t nr, Dtype beta) {
  constexpr index_t MR = GemmBlocking<Dtype>::kMR;
  constexpr index_t NR = GemmBlocking<Dtype>::kNR;
  Dtype acc[MR * NR] = {};
  for (index_t kk = 0; kk < kc; ++kk) {
    const Dtype* a = ap + kk * MR;
    const Dtype* b = bp + kk * NR;
    for (index_t i = 0; i < MR; ++i) {
      const Dtype ai = a[i];
#pragma omp simd
      for (index_t j = 0; j < NR; ++j) acc[i * NR + j] += ai * b[j];
    }
  }
  if (mr == MR && nr == NR) {
    if (beta == Dtype(1)) {
      for (index_t i = 0; i < MR; ++i) {
        Dtype* ci = c + i * ldc;
#pragma omp simd
        for (index_t j = 0; j < NR; ++j) ci[j] += acc[i * NR + j];
      }
    } else if (beta == Dtype(0)) {
      for (index_t i = 0; i < MR; ++i) {
        Dtype* ci = c + i * ldc;
#pragma omp simd
        for (index_t j = 0; j < NR; ++j) ci[j] = acc[i * NR + j];
      }
    } else {
      for (index_t i = 0; i < MR; ++i) {
        Dtype* ci = c + i * ldc;
#pragma omp simd
        for (index_t j = 0; j < NR; ++j) ci[j] = beta * ci[j] + acc[i * NR + j];
      }
    }
  } else {
    for (index_t i = 0; i < mr; ++i) {
      Dtype* ci = c + i * ldc;
      for (index_t j = 0; j < nr; ++j) {
        if (beta == Dtype(1)) {
          ci[j] += acc[i * NR + j];
        } else if (beta == Dtype(0)) {
          ci[j] = acc[i * NR + j];
        } else {
          ci[j] = beta * ci[j] + acc[i * NR + j];
        }
      }
    }
  }
}

/// The jc/pc/ic/jr/ir blocking nest of the packed path, with the two pack
/// steps supplied by the caller (PackedGemm passes PackASlab / PackBSlab).
///
/// PackA(i0, p0, mc, kc, dst) packs the op(A) slab (alpha folded in);
/// PackB(p0, j0, kc, nc, dst) packs the op(B) slab. `packa`/`packb` must
/// hold RoundUpTo(MC,MR)*KC and RoundUpTo(NC,NR)*KC elements respectively.
template <typename Dtype, typename PackA, typename PackB>
void PackedGemmLoop(index_t m, index_t n, index_t k, Dtype beta, Dtype* c,
                    index_t ldc, PackA&& pack_a, PackB&& pack_b, Dtype* packa,
                    Dtype* packb) {
  using B = GemmBlocking<Dtype>;
  for (index_t jc = 0; jc < n; jc += B::kNC) {
    const index_t nc = std::min(B::kNC, n - jc);
    for (index_t pc = 0; pc < k; pc += B::kKC) {
      const index_t kc = std::min(B::kKC, k - pc);
      const Dtype beta_panel = pc == 0 ? beta : Dtype(1);
      pack_b(pc, jc, kc, nc, packb);
      for (index_t ic = 0; ic < m; ic += B::kMC) {
        const index_t mc = std::min(B::kMC, m - ic);
        pack_a(ic, pc, mc, kc, packa);
        for (index_t jr = 0; jr < nc; jr += B::kNR) {
          const index_t nr = std::min(B::kNR, nc - jr);
          for (index_t ir = 0; ir < mc; ir += B::kMR) {
            const index_t mr = std::min(B::kMR, mc - ir);
            MicroKernel(kc, packa + ir * kc, packb + jr * kc,
                        c + (ic + ir) * ldc + jc + jr, ldc, mr, nr,
                        beta_panel);
          }
        }
      }
    }
  }
}

// ---- small-path row primitives ---------------------------------------------

/// y[0..n) += a * x[0..n). Per-element chains — no reduction — but kept
/// out-of-line anyway so every caller runs the identical vectorized body.
template <typename Dtype>
CGDNN_KERNEL_NOINLINE void AxpyRowKernel(index_t n, Dtype a,
                                         const Dtype* __restrict x,
                                         Dtype* __restrict y) {
#pragma omp simd
  for (index_t j = 0; j < n; ++j) y[j] += a * x[j];
}

/// sum over x[0..k) * y[0..k). The `omp simd` reduction tree depends on the
/// vector factor the compiler picks — noinline pins ONE definition per type
/// so every caller reduces in exactly the same order.
template <typename Dtype>
CGDNN_KERNEL_NOINLINE Dtype DotRowKernel(index_t k, const Dtype* __restrict x,
                                         const Dtype* __restrict y) {
  Dtype sum = 0;
#pragma omp simd reduction(+ : sum)
  for (index_t kk = 0; kk < k; ++kk) sum += x[kk] * y[kk];
  return sum;
}

}  // namespace cgdnn::blas::kernels

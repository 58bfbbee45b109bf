#include "tensor/gemm.hpp"

#include <atomic>

#include "tensor/gemm_kernel.hpp"

namespace psml::tensor {

namespace {

std::size_t op_rows(const MatrixF& x, Trans t) {
  return t == Trans::kNo ? x.rows() : x.cols();
}
std::size_t op_cols(const MatrixF& x, Trans t) {
  return t == Trans::kNo ? x.cols() : x.rows();
}

std::atomic<GemmIsa> g_isa{GemmIsa::kAuto};
std::atomic<std::size_t> g_isa_revision{0};

bool resolve_simd() {
  switch (g_isa.load(std::memory_order_relaxed)) {
    case GemmIsa::kScalar:
      return false;
    case GemmIsa::kSimd:
    case GemmIsa::kAuto:
      break;
  }
  return detail::cpu_has_avx2_fma();
}

// Fills the strided-view fields of `g` for one operand pair. A transposed
// operand is handled by swapping the view strides — the packing routines do
// the gather, so there is no transpose copy.
detail::GemmArgsF32 make_args(float alpha, const MatrixF& a, Trans ta,
                              const MatrixF& b, Trans tb, float beta,
                              MatrixF& c, const GemmDims& d, ThreadPool* pool) {
  detail::GemmArgsF32 g;
  g.m = d.m;
  g.n = d.n;
  g.k = d.k;
  g.alpha = alpha;
  g.beta = beta;
  g.a = a.data();
  if (ta == Trans::kNo) {
    g.a_rs = a.cols();  // storage m x k
    g.a_cs = 1;
  } else {
    g.a_rs = 1;         // storage k x m
    g.a_cs = a.cols();
  }
  g.b = b.data();
  if (tb == Trans::kNo) {
    g.b_rs = b.cols();  // storage k x n
    g.b_cs = 1;
  } else {
    g.b_rs = 1;         // storage n x k
    g.b_cs = b.cols();
  }
  g.c = c.data();
  g.ldc = d.n;
  g.pool = pool;
  return g;
}

void run_packed(const detail::GemmArgsF32& g) {
  if (resolve_simd()) {
    detail::gemm_f32_simd(g);
  } else {
    detail::gemm_f32_scalar(g);
  }
}

}  // namespace

GemmDims gemm_dims(const MatrixF& a, Trans ta, const MatrixF& b, Trans tb,
                   const MatrixF& c) {
  const std::size_t m = op_rows(a, ta);
  const std::size_t k = op_cols(a, ta);
  const std::size_t kb = op_rows(b, tb);
  const std::size_t n = op_cols(b, tb);
  PSML_REQUIRE(k == kb, "gemm: inner dimensions disagree");
  PSML_REQUIRE(c.rows() == m && c.cols() == n, "gemm: output shape mismatch");
  return {m, n, k};
}

void gemm_naive(float alpha, const MatrixF& a, Trans ta, const MatrixF& b,
                Trans tb, float beta, MatrixF& c) {
  const auto [m, n, k] = gemm_dims(a, ta, b, tb, c);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = ta == Trans::kNo ? a(i, kk) : a(kk, i);
        const float bv = tb == Trans::kNo ? b(kk, j) : b(j, kk);
        acc += av * bv;
      }
      // beta == 0 overwrites (BLAS semantics) so stale C contents — including
      // NaN in freshly "allocated" buffers — never leak into the result.
      c(i, j) = beta == 0.0f ? alpha * acc : alpha * acc + beta * c(i, j);
    }
  }
}

void gemm_blocked(float alpha, const MatrixF& a, Trans ta, const MatrixF& b,
                  Trans tb, float beta, MatrixF& c) {
  const GemmDims d = gemm_dims(a, ta, b, tb, c);
  run_packed(make_args(alpha, a, ta, b, tb, beta, c, d, /*pool=*/nullptr));
}

void gemm_parallel(float alpha, const MatrixF& a, Trans ta, const MatrixF& b,
                   Trans tb, float beta, MatrixF& c) {
  const GemmDims d = gemm_dims(a, ta, b, tb, c);
  run_packed(make_args(alpha, a, ta, b, tb, beta, c, d,
                       detail::pool_if_worth(ThreadPool::global(), d.m, d.n,
                                             d.k)));
}

void gemm_rowmajor(float alpha, const float* a, const float* b, float beta,
                   float* c, std::size_t m, std::size_t n, std::size_t k,
                   ThreadPool& pool) {
  detail::GemmArgsF32 g;
  g.m = m;
  g.n = n;
  g.k = k;
  g.alpha = alpha;
  g.beta = beta;
  g.a = a;
  g.a_rs = k;
  g.a_cs = 1;
  g.b = b;
  g.b_rs = n;
  g.b_cs = 1;
  g.c = c;
  g.ldc = n;
  g.pool = detail::pool_if_worth(pool, m, n, k);
  run_packed(g);
}

void round_to_half(const float* src, float* dst, std::size_t n) {
  if (resolve_simd() && detail::cpu_has_f16c()) {
    detail::round_half_f16c(src, dst, n);
  } else {
    detail::round_half_scalar(src, dst, n);
  }
}

MatrixF matmul(const MatrixF& a, const MatrixF& b) {
  MatrixF c(a.rows(), b.cols());
  gemm_parallel(1.0f, a, Trans::kNo, b, Trans::kNo, 0.0f, c);
  return c;
}

MatrixF matmul_naive(const MatrixF& a, const MatrixF& b) {
  MatrixF c(a.rows(), b.cols());
  gemm_naive(1.0f, a, Trans::kNo, b, Trans::kNo, 0.0f, c);
  return c;
}

namespace detail {
void gemm_u64_auto(const GemmArgsU64& g) {
  if (!resolve_simd()) {
    gemm_u64_scalar(g);
  } else if (cpu_has_avx512dq()) {
    gemm_u64_avx512(g);
  } else {
    gemm_u64_simd(g);
  }
}
}  // namespace detail

void set_gemm_isa(GemmIsa isa) {
  g_isa.store(isa, std::memory_order_relaxed);
  g_isa_revision.fetch_add(1, std::memory_order_relaxed);
}

GemmIsa gemm_isa() { return g_isa.load(std::memory_order_relaxed); }

bool gemm_simd_available() { return detail::cpu_has_avx2_fma(); }

const char* gemm_kernel_name() {
  return resolve_simd() ? "avx2fma-6x16" : "scalar-6x16";
}

std::size_t gemm_kernel_revision() {
  return g_isa_revision.load(std::memory_order_relaxed);
}

}  // namespace psml::tensor

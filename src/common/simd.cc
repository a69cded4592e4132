#include "src/common/simd.h"

#include <cstring>

#include "src/common/hash.h"

namespace revere::simd {

namespace {

/// Sets (kAnd = false) or ands (kAnd = true) mask bit i with
/// eq(i), i < n, one 64-bit word at a time; bits >= n come out zero.
template <bool kAnd, typename Eq>
void MaskFrom(size_t n, uint64_t* mask, Eq eq) {
  for (size_t w = 0; w < MaskWords(n); ++w) {
    uint64_t word = 0;
    size_t limit = n - w * 64 < 64 ? n - w * 64 : 64;
    for (size_t b = 0; b < limit; ++b) {
      word |= uint64_t{eq(w * 64 + b)} << b;
    }
    if (kAnd) {
      mask[w] &= word;
    } else {
      mask[w] = word;
    }
  }
}

}  // namespace

void FillU32(uint32_t v, size_t n, uint32_t* out) {
  for (size_t i = 0; i < RoundUpLanes(n); ++i) out[i] = v;
}

void FillU64(uint64_t v, size_t n, uint64_t* out) {
  for (size_t i = 0; i < RoundUpLanes(n); ++i) out[i] = v;
}

void IotaU32(uint32_t base, size_t n, uint32_t* out) {
  for (size_t i = 0; i < RoundUpLanes(n); ++i) {
    out[i] = base + static_cast<uint32_t>(i);
  }
}

void CopyU32(const uint32_t* src, size_t n, uint32_t* out) {
  std::memcpy(out, src, RoundUpLanes(n) * sizeof(uint32_t));
}

void GatherU32(const uint32_t* vals, const uint32_t* idx, size_t n,
               uint32_t* out) {
  // idx == out aliasing is fine: each element is read before written.
  for (size_t i = 0; i < RoundUpLanes(n); ++i) out[i] = vals[idx[i]];
}

void EqMaskSet(const uint32_t* a, uint32_t want, size_t n, uint64_t* mask) {
  MaskFrom<false>(n, mask, [&](size_t i) { return a[i] == want; });
}

void EqMaskAnd(const uint32_t* a, uint32_t want, size_t n, uint64_t* mask) {
  MaskFrom<true>(n, mask, [&](size_t i) { return a[i] == want; });
}

void Eq2MaskSet(const uint32_t* a, const uint32_t* b, size_t n,
                uint64_t* mask) {
  MaskFrom<false>(n, mask, [&](size_t i) { return a[i] == b[i]; });
}

void Eq2MaskAnd(const uint32_t* a, const uint32_t* b, size_t n,
                uint64_t* mask) {
  MaskFrom<true>(n, mask, [&](size_t i) { return a[i] == b[i]; });
}

size_t CompactU32(const uint32_t* src, const uint64_t* mask, size_t n,
                  uint32_t* out) {
  size_t k = 0;
  for (size_t w = 0; w < MaskWords(n); ++w) {
    uint64_t word = mask[w];
    while (word != 0) {
      unsigned b = static_cast<unsigned>(__builtin_ctzll(word));
      out[k++] = src[w * 64 + b];
      word &= word - 1;
    }
  }
  return k;
}

void HashMix(const uint64_t* vh, const uint32_t* codes, size_t n,
             uint64_t* h) {
  for (size_t i = 0; i < RoundUpLanes(n); ++i) {
    h[i] = HashStep(h[i], vh[codes[i]]);
  }
}

void HashMixConst(uint64_t hv, size_t n, uint64_t* h) {
  for (size_t i = 0; i < RoundUpLanes(n); ++i) h[i] = HashStep(h[i], hv);
}

}  // namespace revere::simd

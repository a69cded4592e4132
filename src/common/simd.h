#ifndef REVERE_COMMON_SIMD_H_
#define REVERE_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace revere::simd {

/// Batch kernel layer over `uint32` code arrays.
///
/// The columnar engine's hot loops — constant filters, repeated-variable
/// equality checks, grouped-index gathers, and the code-domain row-hash
/// mix at the output boundary — are expressed against this small kernel
/// vocabulary instead of raw loops. The kernels are plain loops over
/// whole lanes that the compiler is free to vectorize; batching, not
/// hand-written intrinsics, is what paid (EXPERIMENTS.md P4), so the
/// build carries no arch-specific code and no second implementation.
///
/// ## Padding contract
///
/// Kernels process whole lanes: a call with `n` elements may read *and
/// write* up to `RoundUpLanes(n)` elements of every array argument, and
/// `CompactU32` may overshoot its output by up to one extra lane. All
/// buffers handed to these kernels must therefore be allocated with
/// `PaddedCount(n)` elements (ColumnTable over-allocates its `codes`
/// and `group_rows` arrays by `kPad` for the same reason). Gather index
/// arrays must contain *valid* indices in their padded tail too — the
/// engine pads candidate tails with a known-valid row id — because a
/// masked-off lane's gather still dereferences. Tail lanes never affect
/// results: mask kernels zero bits >= n, and compact honours the mask.
///
/// All kernels are deterministic; tests/common_test.cc checks each one
/// against its definition over padded lengths.

/// Lane quantum of the kernels; the padding quantum.
inline constexpr size_t kPad = 8;

/// n rounded up to a whole number of kPad-lanes.
inline constexpr size_t RoundUpLanes(size_t n) {
  return (n + kPad - 1) & ~(kPad - 1);
}

/// Element count to allocate for an n-element kernel buffer: whole
/// lanes plus one extra lane of slack for CompactU32 overshoot.
inline constexpr size_t PaddedCount(size_t n) { return RoundUpLanes(n) + kPad; }

/// 64-bit words needed for an n-element bitmask.
inline constexpr size_t MaskWords(size_t n) { return (n + 63) / 64; }

// The kernel vocabulary. Masks are bit-per-element uint64 words, bit i
// of word i/64 = element i; mask kernels keep bits >= n zero.

/// out[i] = v for i < RoundUpLanes(n).
void FillU32(uint32_t v, size_t n, uint32_t* out);
void FillU64(uint64_t v, size_t n, uint64_t* out);
/// out[i] = base + i for i < RoundUpLanes(n).
void IotaU32(uint32_t base, size_t n, uint32_t* out);
/// out[i] = src[i] for i < RoundUpLanes(n). src/out must not overlap.
void CopyU32(const uint32_t* src, size_t n, uint32_t* out);
/// out[i] = vals[idx[i]] for i < RoundUpLanes(n). Every idx[i] in the
/// padded extent must be a valid index into vals. `idx == out`
/// aliasing is allowed (each lane loads before it stores).
void GatherU32(const uint32_t* vals, const uint32_t* idx, size_t n,
               uint32_t* out);
/// mask bit i = (a[i] == want), i < n; bits >= n cleared.
void EqMaskSet(const uint32_t* a, uint32_t want, size_t n, uint64_t* mask);
/// mask bit i &= (a[i] == want).
void EqMaskAnd(const uint32_t* a, uint32_t want, size_t n, uint64_t* mask);
/// mask bit i = (a[i] == b[i]), i < n; bits >= n cleared.
void Eq2MaskSet(const uint32_t* a, const uint32_t* b, size_t n,
                uint64_t* mask);
/// mask bit i &= (a[i] == b[i]).
void Eq2MaskAnd(const uint32_t* a, const uint32_t* b, size_t n,
                uint64_t* mask);
/// out[k++] = src[i] for each set mask bit i < n, ascending; returns
/// k. May write up to one lane past the last element emitted.
size_t CompactU32(const uint32_t* src, const uint64_t* mask, size_t n,
                  uint32_t* out);
/// h[i] = HashStep(h[i], vh[codes[i]]) for i < RoundUpLanes(n) — the
/// code-domain row-hash mix (vh = per-dictionary value hashes). Every
/// codes[i] in the padded extent must be a valid index into vh.
void HashMix(const uint64_t* vh, const uint32_t* codes, size_t n,
             uint64_t* h);
/// h[i] = HashStep(h[i], hv) — constant / unbound head positions.
void HashMixConst(uint64_t hv, size_t n, uint64_t* h);

}  // namespace revere::simd

#endif  // REVERE_COMMON_SIMD_H_

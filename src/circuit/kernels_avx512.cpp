// AVX-512 backend: the generic run kernels compiled for x86-64-v4, where a
// 16-word (1024-lane) slot is a pair of zmm registers.  The one
// hand-written part is the bit-plane decoders: AVX-512BW masked
// broadcast-adds (the plane word itself is the write mask), tiled in
// 256-lane groups so the accumulator set stays within the register file.
//
// CMake compiles this TU with -march=x86-64-v4; nothing in it executes
// unless runtime detection confirmed avx512{f,bw,vl,dq}.

#include "src/circuit/kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__AVX512DQ__)

#include <immintrin.h>

namespace axf::circuit::kernels {
namespace avx512_impl {

#include "src/circuit/kernels_generic.inc"

/// One masked broadcast-add per (bit, 32-lane group): twice the lanes per
/// add of the 32-bit decode, valid for bits <= 16.  Tiled in 256-lane
/// (4-word) groups so the block reuses one 8-accumulator inner kernel
/// instead of demanding four times the registers.
void decode16Avx512(const Word* planes, std::size_t bits, std::uint16_t* out) {
    constexpr std::size_t W = kBlockWords;
    constexpr std::size_t kTileWords = 4;
    for (std::size_t base = 0; base < W; base += kTileWords) {
        constexpr std::size_t kGroups = kTileWords * 64 / 32;
        __m512i acc[kGroups];
        for (auto& g : acc) g = _mm512_setzero_si512();
        for (std::size_t bit = 0; bit < bits; ++bit) {
            const __m512i weight = _mm512_set1_epi16(static_cast<short>(1u << bit));
            const Word* words = planes + bit * W + base;
            for (std::size_t g = 0; g < kGroups; ++g) {
                const __mmask32 m =
                    static_cast<__mmask32>(words[(g * 32) / 64] >> ((g * 32) % 64));
                acc[g] = _mm512_mask_add_epi16(acc[g], m, acc[g], weight);
            }
        }
        std::uint16_t* o = out + base * 64;
        for (std::size_t g = 0; g < kGroups; ++g)
            _mm512_storeu_si512(reinterpret_cast<__m512i*>(o + g * 32), acc[g]);
    }
}

void decode32Avx512(const Word* planes, std::size_t bits, std::uint32_t* out) {
    constexpr std::size_t W = kBlockWords;
    constexpr std::size_t kTileWords = 4;
    for (std::size_t base = 0; base < W; base += kTileWords) {
        constexpr std::size_t kGroups = kTileWords * 64 / 16;
        __m512i acc[kGroups];
        for (auto& g : acc) g = _mm512_setzero_si512();
        for (std::size_t bit = 0; bit < bits; ++bit) {
            const __m512i weight = _mm512_set1_epi32(1u << bit);
            const Word* words = planes + bit * W + base;
            for (std::size_t g = 0; g < kGroups; ++g) {
                const __mmask16 m =
                    static_cast<__mmask16>(words[(g * 16) / 64] >> ((g * 16) % 64));
                acc[g] = _mm512_mask_add_epi32(acc[g], m, acc[g], weight);
            }
        }
        std::uint32_t* o = out + base * 64;
        for (std::size_t g = 0; g < kGroups; ++g)
            _mm512_storeu_si512(reinterpret_cast<__m512i*>(o + g * 16), acc[g]);
    }
}

/// The generic run kernels with the AVX-512BW decoders.
constexpr Backend kBackend = {
    "avx512", {kGenericWide.run, &decode16Avx512, &decode32Avx512}, kGenericNarrow};

}  // namespace avx512_impl

const Backend* avx512Backend() { return &avx512_impl::kBackend; }

}  // namespace axf::circuit::kernels

#else

namespace axf::circuit::kernels {
const Backend* avx512Backend() { return nullptr; }
}  // namespace axf::circuit::kernels

#endif

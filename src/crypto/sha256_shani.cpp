// SHA-256 compression with the x86 SHA extensions. This TU alone is
// compiled with -msha -msse4.1 (see src/crypto/CMakeLists.txt); the rest
// of the library stays at baseline codegen and reaches this kernel only
// through the runtime CPUID dispatch in sha256.cpp, so one binary runs on
// hosts without SHA-NI too.
//
// Layout: sha256rnds2 works on the state split as ABEF / CDGH, two rounds
// per instruction, taking the round inputs W+K from the low half of its
// third operand. Each loop step runs four rounds, then (for the first 12
// steps) extends the message schedule by four words with sha256msg1/msg2
// into the slot whose words those rounds just consumed.
#include "crypto/sha256_kernels.hpp"

#if defined(__SHA__) && defined(__SSE4_1__)

#include <immintrin.h>

namespace rogue::crypto::detail {

namespace {
alignas(16) constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
}  // namespace

bool sha256_shani_compiled() { return true; }

void sha256_compress_shani(std::uint32_t* state, const std::uint8_t* data,
                           std::size_t blocks) {
  // Big-endian message words: byte-reverse each 32-bit lane.
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  // a..h -> ABEF / CDGH.
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
    for (int q = 0; q < 4; ++q) {
      w[q] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * q)), bswap);
    }
#pragma GCC unroll 16
    for (int q = 0; q < 16; ++q) {
      const __m128i wk = _mm_add_epi32(
          w[q & 3], _mm_load_si128(reinterpret_cast<const __m128i*>(kK + 4 * q)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      if (q < 12) {
        // W[t..t+3] for t = 4(q+4): msg1 adds sigma0 of W[t-15..t-12] to
        // W[t-16..t-13], the alignr supplies W[t-7..t-4], msg2 adds sigma1.
        __m128i x = _mm_sha256msg1_epu32(w[q & 3], w[(q + 1) & 3]);
        x = _mm_add_epi32(x, _mm_alignr_epi8(w[(q + 3) & 3], w[(q + 2) & 3], 4));
        w[q & 3] = _mm_sha256msg2_epu32(x, w[(q + 3) & 3]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  // ABEF / CDGH -> a..h.
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

}  // namespace rogue::crypto::detail

#else  // no SHA/SSE4.1 codegen: keep the symbols so dispatch links on any target.

namespace rogue::crypto::detail {

bool sha256_shani_compiled() { return false; }

void sha256_compress_shani(std::uint32_t*, const std::uint8_t*, std::size_t) {}

}  // namespace rogue::crypto::detail

#endif  // __SHA__ && __SSE4_1__

// Internal contract between sha256.cpp and the ISA-specific compression
// kernel translation unit. Not installed API: the public surface stays
// sha256.hpp's Sha256 class + backend selectors.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rogue::crypto::detail {

/// True when the SHA-NI kernel TU was built with SHA/SSE4.1 codegen (the
/// build probes the compiler; the *runtime* CPU check is separate).
[[nodiscard]] bool sha256_shani_compiled();

/// Compress `blocks` consecutive 64-byte blocks from `data` into the eight
/// FIPS 180-4 state words (a..h order). Only callable when
/// sha256_shani_compiled() and the CPU reports SHA, SSSE3 and SSE4.1.
void sha256_compress_shani(std::uint32_t* state, const std::uint8_t* data,
                           std::size_t blocks);

}  // namespace rogue::crypto::detail

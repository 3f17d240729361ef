// SHA-256 (FIPS 180-4). Basis of HMAC-SHA256, the VPN's record MAC and
// key-derivation PRF.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "util/bytes.hpp"

namespace rogue::crypto {

using Sha256Digest = std::array<std::uint8_t, 32>;

/// Compression kernel selection. kAuto probes the CPU once (SHA-NI >
/// scalar); the explicit values force a path for tests and benchmarks.
/// Every backend produces byte-identical digests — only speed differs.
enum class Sha256Backend { kAuto, kScalar, kShaNi };

/// Force the compression kernel. Call before hashing starts (init or test
/// setup — the switch is not synchronized against in-flight calls).
/// Forcing a backend the host cannot run falls back to the best available
/// one. Returns the backend actually in effect.
Sha256Backend sha256_set_backend(Sha256Backend backend);
/// The backend update()/finish() currently dispatch to (never kAuto).
[[nodiscard]] Sha256Backend sha256_backend();

class Sha256 {
 public:
  Sha256();

  void update(util::ByteView data);
  [[nodiscard]] Sha256Digest finish();

 private:
  /// Compress `blocks` consecutive 64-byte blocks through the dispatched kernel.
  void compress(const std::uint8_t* data, std::size_t blocks);

  std::array<std::uint32_t, 8> state_;
  std::uint64_t total_len_ = 0;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
};

[[nodiscard]] Sha256Digest sha256(util::ByteView data);
[[nodiscard]] std::string sha256_hex(util::ByteView data);

}  // namespace rogue::crypto

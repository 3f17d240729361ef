// Arbitrary-precision unsigned integers, just enough for finite-field
// Diffie-Hellman: add/sub/compare, byte/hex conversion, and modular
// exponentiation by Montgomery multiplication (CIOS, fixed 5-bit window) over
// a fixed 16-limb buffer: odd moduli up to 1024 bits. Little-endian 64-bit limbs.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace rogue::crypto {

class BigUint {
 public:
  BigUint() = default;
  explicit BigUint(std::uint64_t v);

  /// Parse big-endian bytes (as found in wire formats / hex constants).
  [[nodiscard]] static BigUint from_bytes_be(util::ByteView bytes);
  /// Parse hex string (no 0x prefix required; whitespace ignored).
  [[nodiscard]] static BigUint from_hex(std::string_view hex);

  /// Serialize big-endian, minimal length (empty for zero unless padded).
  [[nodiscard]] util::Bytes to_bytes_be(std::size_t pad_to = 0) const;
  [[nodiscard]] std::string to_hex() const;

  [[nodiscard]] bool is_zero() const { return limbs_.empty(); }
  [[nodiscard]] std::size_t bit_length() const;
  [[nodiscard]] bool bit(std::size_t i) const;

  [[nodiscard]] static int compare(const BigUint& a, const BigUint& b);
  friend bool operator==(const BigUint& a, const BigUint& b) { return compare(a, b) == 0; }
  friend std::strong_ordering operator<=>(const BigUint& a, const BigUint& b) {
    return compare(a, b) <=> 0;
  }

  [[nodiscard]] static BigUint add(const BigUint& a, const BigUint& b);
  /// a - b; requires a >= b.
  [[nodiscard]] static BigUint sub(const BigUint& a, const BigUint& b);
  /// (base ^ exp) mod m; m must be odd, 1 < m < 2^1024, and base < m.
  [[nodiscard]] static BigUint mod_pow(const BigUint& base, const BigUint& exp,
                                       const BigUint& m);

 private:
  void trim();

  std::vector<std::uint64_t> limbs_;  // little-endian; empty == 0
};

}  // namespace rogue::crypto

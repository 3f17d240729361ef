// WEP (Wired Equivalent Privacy) encapsulation exactly as deployed on
// 802.11b: per-frame 24-bit IV prepended to the shared secret to form the
// RC4 key, CRC-32 ICV appended to the plaintext before encryption.
//
// Both of the paper's WEP points hang off this module:
//  * the rogue AP knows the same shared key, so WEP "provides no
//    protection what so ever" against it (§2.1), and
//  * outsiders recover the key passively via the FMS weak-IV attack
//    ("retrieved the WEP key via Airsnort", §4) — see attack/airsnort.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "util/bytes.hpp"
#include "util/prng.hpp"

namespace rogue::crypto {

inline constexpr std::size_t kWepIvLen = 3;
inline constexpr std::size_t kWepIcvLen = 4;
inline constexpr std::size_t kWep40KeyLen = 5;    // "64-bit" WEP
inline constexpr std::size_t kWep104KeyLen = 13;  // "128-bit" WEP

using WepIv = std::array<std::uint8_t, kWepIvLen>;

/// How a device chooses IVs. Real Prism/Atmel-era cards counted
/// sequentially, which is what makes FMS practical; later firmware skipped
/// the weak classes ("WEPplus").
enum class WepIvPolicy : std::uint8_t {
  kSequential,   ///< counter starting at 0 (historic card behaviour)
  kRandom,       ///< uniformly random per frame
  kSkipWeak,     ///< sequential but skipping FMS-weak IVs
};

/// True if `iv` is in the classic FMS-weak form (A+3, 0xFF, X) for any
/// key byte index A of a key of length `key_len`.
[[nodiscard]] bool is_fms_weak_iv(const WepIv& iv, std::size_t key_len);

/// Stateful IV generator implementing the policy above.
class WepIvGenerator {
 public:
  WepIvGenerator(WepIvPolicy policy, std::size_t key_len, std::uint64_t seed);

  [[nodiscard]] WepIv next();

 private:
  WepIvPolicy policy_;
  std::size_t key_len_;
  std::uint32_t counter_ = 0;
  util::Prng rng_;
};

/// Encrypt `plaintext` under (iv, key): returns iv || key_id || RC4(data||ICV).
/// `key` must be 5 or 13 bytes. key_id is the WEP key slot (0..3).
[[nodiscard]] util::Bytes wep_encrypt(const WepIv& iv, util::ByteView key,
                                      util::ByteView plaintext,
                                      std::uint8_t key_id = 0);

struct WepDecryptResult {
  util::Bytes plaintext;
  WepIv iv;
  std::uint8_t key_id = 0;
};

/// Decrypt a WEP-encapsulated body; returns nullopt if too short or the
/// ICV check fails (wrong key or tampered frame). `key` is at most 13 bytes.
[[nodiscard]] std::optional<WepDecryptResult> wep_decrypt(util::ByteView body,
                                                          util::ByteView key);

/// Parse just the IV/key-id header off an encrypted body (for sniffers
/// that collect IVs without knowing the key). Returns nullopt if short.
struct WepHeader {
  WepIv iv;
  std::uint8_t key_id;
  util::ByteView ciphertext;  ///< RC4(data || ICV), view into `body`
};
[[nodiscard]] std::optional<WepHeader> wep_parse_header(util::ByteView body);

}  // namespace rogue::crypto

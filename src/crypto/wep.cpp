#include "crypto/wep.hpp"

#include <algorithm>
#include <array>

#include "crypto/crc32.hpp"
#include "crypto/rc4.hpp"
#include "util/assert.hpp"

namespace rogue::crypto {

bool is_fms_weak_iv(const WepIv& iv, std::size_t key_len) {
  // Classic FMS class: IV = (A + 3, 0xFF, X) leaks key byte A.
  if (iv[1] != 0xff) return false;
  return iv[0] >= 3 && iv[0] < 3 + key_len;
}

WepIvGenerator::WepIvGenerator(WepIvPolicy policy, std::size_t key_len,
                               std::uint64_t seed)
    : policy_(policy), key_len_(key_len), rng_(seed) {}

WepIv WepIvGenerator::next() {
  WepIv iv{};
  switch (policy_) {
    case WepIvPolicy::kRandom: {
      rng_.fill(iv);
      return iv;
    }
    case WepIvPolicy::kSequential: {
      // Little-endian counter, as on Prism-era cards: the low byte is
      // iv[0], so FMS-weak IVs (A+3, 0xFF, X) recur every 64 Ki frames.
      iv[0] = static_cast<std::uint8_t>(counter_);
      iv[1] = static_cast<std::uint8_t>(counter_ >> 8);
      iv[2] = static_cast<std::uint8_t>(counter_ >> 16);
      counter_ = (counter_ + 1) & 0xffffffu;
      return iv;
    }
    case WepIvPolicy::kSkipWeak: {
      do {
        iv[0] = static_cast<std::uint8_t>(counter_);
        iv[1] = static_cast<std::uint8_t>(counter_ >> 8);
        iv[2] = static_cast<std::uint8_t>(counter_ >> 16);
        counter_ = (counter_ + 1) & 0xffffffu;
      } while (is_fms_weak_iv(iv, key_len_));
      return iv;
    }
  }
  return iv;
}

namespace {
/// IV || key, the per-frame RC4 key, built on the stack.
[[nodiscard]] Rc4 frame_cipher(const WepIv& iv, util::ByteView key) {
  ROGUE_ASSERT_MSG(key.size() <= kWep104KeyLen, "WEP key must be at most 13 bytes");
  std::array<std::uint8_t, kWepIvLen + kWep104KeyLen> k{};
  std::copy(iv.begin(), iv.end(), k.begin());
  std::copy(key.begin(), key.end(), k.begin() + kWepIvLen);
  return Rc4(util::ByteView(k.data(), kWepIvLen + key.size()));
}
}  // namespace

util::Bytes wep_encrypt(const WepIv& iv, util::ByteView key, util::ByteView plaintext,
                        std::uint8_t key_id) {
  ROGUE_ASSERT_MSG(key.size() == kWep40KeyLen || key.size() == kWep104KeyLen,
                   "WEP key must be 5 or 13 bytes");
  ROGUE_ASSERT_MSG(key_id < 4, "WEP key id is 2 bits");

  // IV || key id || plaintext || ICV (CRC-32 little-endian, per 802.11-1999
  // 8.2.3), then RC4 over everything after the key-id byte, in place.
  util::Bytes out;
  out.reserve(kWepIvLen + 1 + plaintext.size() + kWepIcvLen);
  out.insert(out.end(), iv.begin(), iv.end());
  out.push_back(static_cast<std::uint8_t>(key_id << 6));
  out.insert(out.end(), plaintext.begin(), plaintext.end());
  const std::uint32_t icv = crc32(plaintext);
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(icv >> (8 * i)));

  frame_cipher(iv, key).process(std::span<std::uint8_t>(out).subspan(kWepIvLen + 1));
  return out;
}

std::optional<WepHeader> wep_parse_header(util::ByteView body) {
  if (body.size() < kWepIvLen + 1 + kWepIcvLen) return std::nullopt;
  WepHeader h{};
  h.iv = {body[0], body[1], body[2]};
  h.key_id = static_cast<std::uint8_t>(body[3] >> 6);
  h.ciphertext = body.subspan(kWepIvLen + 1);
  return h;
}

std::optional<WepDecryptResult> wep_decrypt(util::ByteView body, util::ByteView key) {
  const auto header = wep_parse_header(body);
  if (!header) return std::nullopt;

  util::Bytes data = frame_cipher(header->iv, key).apply(header->ciphertext);

  const std::size_t plain_len = data.size() - kWepIcvLen;
  std::uint32_t icv = 0;
  for (int i = 0; i < 4; ++i) {
    icv |= static_cast<std::uint32_t>(data[plain_len + static_cast<std::size_t>(i)])
           << (8 * i);
  }
  data.resize(plain_len);
  if (crc32(data) != icv) return std::nullopt;

  return WepDecryptResult{std::move(data), header->iv, header->key_id};
}

}  // namespace rogue::crypto

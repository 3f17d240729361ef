#include "crypto/dh.hpp"

#include "util/assert.hpp"

namespace rogue::crypto {

const DhGroup& DhGroup::modp1024() {
  // RFC 2409 §6.2 Second Oakley Group (1024-bit MODP).
  static const DhGroup group{
      BigUint::from_hex(
          "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
          "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
          "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
          "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
          "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381"
          "FFFFFFFFFFFFFFFF"),
      BigUint(2),
      128};
  return group;
}

const DhGroup& DhGroup::toy256() {
  // The prime 2^256 - 189, for unit tests only.
  static const DhGroup group{
      BigUint::from_hex(
          "FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF"
          "FFFFFFFFFFFFFF43"),
      BigUint(5),
      32};
  return group;
}

DhKeyPair DhKeyPair::generate(const DhGroup& group, util::Prng& rng) {
  // Secret exponent in [2, p-1): byte_len random bytes reduced mod (p - 2),
  // + 2. A prime with its top bit set exceeds 2^(8 byte_len - 1) + 2 (as
  // 2^odd + 1 is divisible by 3), so raw < 2(p - 2): one subtraction reduces.
  ROGUE_ASSERT_MSG(group.p.bit_length() == 8 * group.byte_len, "p must fill byte_len");
  util::Bytes raw(group.byte_len);
  rng.fill(raw);
  const BigUint p_minus_2 = BigUint::sub(group.p, BigUint(2));
  BigUint reduced = BigUint::from_bytes_be(raw);
  if (reduced >= p_minus_2) reduced = BigUint::sub(reduced, p_minus_2);
  const BigUint secret = BigUint::add(reduced, BigUint(2));
  return DhKeyPair(group, secret, BigUint::mod_pow(group.g, secret, group.p));
}

util::Bytes DhKeyPair::public_bytes() const {
  return public_.to_bytes_be(group_->byte_len);
}

util::Bytes DhKeyPair::shared_secret(const BigUint& peer_public) const {
  // Partial public-key validation (NIST SP 800-56A), 1 < y < p - 1: 0, 1 and
  // the order-2 element p - 1 would pin the secret to 0 or +-1.
  const BigUint p_minus_1 = BigUint::sub(group_->p, BigUint(1));
  if (peer_public <= BigUint(1) || peer_public >= p_minus_1) return {};
  const BigUint shared = BigUint::mod_pow(peer_public, secret_, group_->p);
  return shared.to_bytes_be(group_->byte_len);
}

util::Bytes DhKeyPair::shared_secret_bytes(util::ByteView peer_public) const {
  return shared_secret(BigUint::from_bytes_be(peer_public));
}

}  // namespace rogue::crypto

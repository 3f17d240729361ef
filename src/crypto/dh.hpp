// Finite-field Diffie-Hellman over the RFC 2409 Oakley Group 2 (1024-bit
// MODP) prime. Used by the VPN handshake; the shared secret is fed to the
// KDF together with the pre-shared authenticator, so an attacker who can
// MITM the wireless hop still cannot impersonate the endpoint (paper §5.2
// requirement 2: authentication information preestablished).
#pragma once

#include "crypto/bignum.hpp"
#include "util/bytes.hpp"
#include "util/prng.hpp"

namespace rogue::crypto {

/// A DH group (generator g, prime p).
struct DhGroup {
  BigUint p;
  BigUint g;
  std::size_t byte_len;  ///< serialized public value length

  /// RFC 2409 Group 2: 1024-bit MODP, generator 2.
  [[nodiscard]] static const DhGroup& modp1024();
  /// Small 256-bit toy group for fast unit tests (NOT for protocol use).
  [[nodiscard]] static const DhGroup& toy256();
};

class DhKeyPair {
 public:
  /// Generate a key pair with randomness from `rng`.
  static DhKeyPair generate(const DhGroup& group, util::Prng& rng);

  [[nodiscard]] const BigUint& public_value() const { return public_; }
  [[nodiscard]] util::Bytes public_bytes() const;

  /// Compute the shared secret with a peer's public value, serialized to
  /// the group's fixed length. Returns empty on invalid peer value
  /// (0, 1, p - 1, or >= p — small-subgroup / garbage rejection).
  [[nodiscard]] util::Bytes shared_secret(const BigUint& peer_public) const;
  [[nodiscard]] util::Bytes shared_secret_bytes(util::ByteView peer_public) const;

 private:
  DhKeyPair(const DhGroup& group, BigUint secret, BigUint pub)
      : group_(&group), secret_(std::move(secret)), public_(std::move(pub)) {}

  const DhGroup* group_;
  BigUint secret_;
  BigUint public_;
};

}  // namespace rogue::crypto

// Crypto tests: published test vectors for every primitive plus
// property-style round-trip and tamper-detection sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <vector>

#include "crypto/aead.hpp"
#include "crypto/bignum.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/crc32.hpp"
#include "crypto/dh.hpp"
#include "crypto/hmac.hpp"
#include "crypto/md5.hpp"
#include "crypto/rc4.hpp"
#include "crypto/sha256.hpp"
#include "crypto/wep.hpp"
#include "util/prng.hpp"

namespace rogue::crypto {
namespace {

using util::Bytes;
using util::ByteView;
using util::hex_encode;
using util::to_bytes;

// ---- RC4 --------------------------------------------------------------------

TEST(Rc4, KnownVectorKey) {
  // Classic test vector: key "Key", plaintext "Plaintext".
  Rc4 rc4(to_bytes("Key"));
  const Bytes ct = rc4.apply(to_bytes("Plaintext"));
  EXPECT_EQ(hex_encode(ct), "bbf316e8d940af0ad3");
}

TEST(Rc4, KnownVectorWiki) {
  Rc4 rc4(to_bytes("Wiki"));
  const Bytes ct = rc4.apply(to_bytes("pedia"));
  EXPECT_EQ(hex_encode(ct), "1021bf0420");
}

TEST(Rc4, EncryptDecryptRoundTrip) {
  util::Prng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    Bytes key(1 + rng.uniform_u32(32));
    rng.fill(key);
    Bytes msg(rng.uniform_u32(500));
    rng.fill(msg);
    Rc4 enc(key);
    Rc4 dec(key);
    EXPECT_EQ(dec.apply(enc.apply(msg)), msg);
  }
}

// ---- CRC32 --------------------------------------------------------------------

TEST(Crc32, KnownVectors) {
  EXPECT_EQ(crc32(to_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0x00000000u);
  EXPECT_EQ(crc32(to_bytes("a")), 0xE8B7BE43u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const Bytes data = to_bytes("hello crc32 world");
  Crc32 inc;
  inc.update(ByteView(data).subspan(0, 5));
  inc.update(ByteView(data).subspan(5));
  EXPECT_EQ(inc.value(), crc32(data));
}

TEST(Crc32, LinearityEnablesBitFlips) {
  // The WEP-breaking property: flipping plaintext bits flips predictable
  // ICV bits, independent of the rest of the message.
  const Bytes a = to_bytes("message-one-xyz");
  Bytes b = a;
  b[3] ^= 0x40;
  Bytes zero(a.size(), 0);
  Bytes delta = zero;
  delta[3] = 0x40;
  EXPECT_EQ(crc32(a) ^ crc32(b), crc32(zero) ^ crc32(delta));
}

// ---- MD5 --------------------------------------------------------------------

TEST(Md5, Rfc1321Vectors) {
  EXPECT_EQ(md5_hex({}), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(md5_hex(to_bytes("a")), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(md5_hex(to_bytes("abc")), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(md5_hex(to_bytes("message digest")),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(md5_hex(to_bytes("abcdefghijklmnopqrstuvwxyz")),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(md5_hex(to_bytes(
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789")),
            "d174ab98d277d9f5a5611c2c9f419d9f");
}

TEST(Md5, StreamingMatchesOneShot) {
  util::Prng rng(2);
  Bytes data(1000);
  rng.fill(data);
  Md5 h;
  // Feed in awkward chunk sizes straddling the 64-byte block boundary.
  // Empty chunks, including a null ByteView{} while a partial block is
  // buffered, must be no-ops.
  std::size_t pos = 0;
  const std::size_t chunks[] = {1, 0, 63, 64, 65, 0, 100, 707};
  for (const std::size_t c : chunks) {
    h.update(ByteView(data).subspan(pos, c));
    h.update(ByteView{});
    pos += c;
  }
  EXPECT_EQ(pos, data.size());
  EXPECT_EQ(h.finish(), md5(data));
}

// ---- SHA-256 ------------------------------------------------------------------

TEST(Sha256, FipsVectors) {
  EXPECT_EQ(sha256_hex(to_bytes("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(sha256_hex({}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  const auto digest = h.finish();
  EXPECT_EQ(hex_encode(ByteView(digest.data(), digest.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// The scalar and SHA-NI kernels must be interchangeable: same digest on
// every message shape and update split. SHA-NI cases skip on CPUs
// without the extension.
class Sha256Backends : public ::testing::Test {
 protected:
  void TearDown() override { sha256_set_backend(Sha256Backend::kAuto); }

  static std::vector<Sha256Backend> backends() {
    return {Sha256Backend::kScalar, Sha256Backend::kShaNi};
  }

  /// Force `backend`; false (after GTEST_SKIP) when the host lacks it.
  static bool use(Sha256Backend backend) {
    return sha256_set_backend(backend) == backend;
  }

  static Sha256Digest digest_with(Sha256Backend backend, ByteView msg) {
    sha256_set_backend(backend);
    return sha256(msg);
  }
};

TEST_F(Sha256Backends, FipsVectorsOnEveryBackend) {
  for (const Sha256Backend b : backends()) {
    if (!use(b)) GTEST_SKIP() << "SHA-NI unavailable on this host";
    EXPECT_EQ(sha256_hex(to_bytes("abc")),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(sha256_hex({}),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(sha256_hex(to_bytes(
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    EXPECT_EQ(sha256_hex(to_bytes(
                  "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                  "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
              "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
    Sha256 h;
    const Bytes chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) h.update(chunk);
    const auto digest = h.finish();
    EXPECT_EQ(hex_encode(ByteView(digest.data(), digest.size())),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  }
}

TEST_F(Sha256Backends, EveryLengthMatchesScalar) {
  // 0..1100 covers every padding shape (one or two final blocks) and
  // multi-block bulk calls; 1 MiB is one long kernel call.
  if (!use(Sha256Backend::kShaNi)) GTEST_SKIP() << "SHA-NI unavailable on this host";
  util::Prng rng(21);
  Bytes data(1100);
  rng.fill(data);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const ByteView msg = ByteView(data).subspan(0, len);
    ASSERT_EQ(digest_with(Sha256Backend::kShaNi, msg),
              digest_with(Sha256Backend::kScalar, msg))
        << "length " << len;
  }
  Bytes big(1 << 20);
  rng.fill(big);
  EXPECT_EQ(digest_with(Sha256Backend::kShaNi, big),
            digest_with(Sha256Backend::kScalar, big));
}

TEST_F(Sha256Backends, RandomUpdateSplitsMatchOneShot) {
  util::Prng rng(22);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes msg(rng.uniform_u32(2000));
    rng.fill(msg);
    const Sha256Digest want = digest_with(Sha256Backend::kScalar, msg);
    for (const Sha256Backend b : backends()) {
      if (!use(b)) continue;
      Sha256 h;
      std::size_t off = 0;
      while (off < msg.size()) {
        const std::size_t step = std::min<std::size_t>(
            rng.uniform_u32(200), msg.size() - off);
        h.update(ByteView(msg).subspan(off, step));
        off += step;
      }
      h.update(ByteView{});
      EXPECT_EQ(h.finish(), want)
          << "backend " << static_cast<int>(b) << " size " << msg.size();
    }
  }
}

TEST_F(Sha256Backends, UnalignedBufferOffsets) {
  // The SHA-NI kernel loads message blocks unaligned; hash the same bytes
  // at every offset inside an overaligned arena.
  util::Prng rng(23);
  alignas(64) std::array<std::uint8_t, 64 + 1000> arena{};
  Bytes msg(1000);
  rng.fill(msg);
  const Sha256Digest want = digest_with(Sha256Backend::kScalar, msg);
  for (const Sha256Backend b : backends()) {
    if (!use(b)) continue;
    for (std::size_t offset = 0; offset < 64; ++offset) {
      std::copy(msg.begin(), msg.end(), arena.begin() + static_cast<std::ptrdiff_t>(offset));
      EXPECT_EQ(sha256(ByteView(arena).subspan(offset, msg.size())), want)
          << "backend " << static_cast<int>(b) << " offset " << offset;
    }
  }
}

// ---- HMAC ---------------------------------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const auto mac = hmac_sha256(key, to_bytes("Hi There"));
  EXPECT_EQ(hex_encode(ByteView(mac.data(), mac.size())),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const auto mac = hmac_sha256(to_bytes("Jefe"),
                               to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(hex_encode(ByteView(mac.data(), mac.size())),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  const auto mac = hmac_sha256(key, msg);
  EXPECT_EQ(hex_encode(ByteView(mac.data(), mac.size())),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsHashed) {
  const Bytes key(131, 0xaa);
  const auto mac = hmac_sha256(
      key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(hex_encode(ByteView(mac.data(), mac.size())),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Kdf, ExpandIsDeterministicAndLabelled) {
  const Bytes key = to_bytes("master");
  const Bytes a = kdf_expand(key, to_bytes("c2s"), 64);
  const Bytes b = kdf_expand(key, to_bytes("c2s"), 64);
  const Bytes c = kdf_expand(key, to_bytes("s2c"), 64);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 64u);
  // Prefix property: shorter output is a prefix of longer.
  const Bytes a16 = kdf_expand(key, to_bytes("c2s"), 16);
  EXPECT_TRUE(std::equal(a16.begin(), a16.end(), a.begin()));
}

// ---- ChaCha20 -------------------------------------------------------------------

TEST(ChaCha20, Rfc8439Vector) {
  // RFC 8439 §2.4.2.
  Bytes key(32);
  for (std::size_t i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  const Bytes nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                       0x4a, 0x00, 0x00, 0x00, 0x00};
  ChaCha20 cipher(key, nonce, 1);
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  const Bytes ct = cipher.apply(to_bytes(plaintext));
  EXPECT_EQ(hex_encode(ByteView(ct).subspan(0, 16)),
            "6e2e359a2568f98041ba0728dd0d6981");
  EXPECT_EQ(hex_encode(ByteView(ct).subspan(ct.size() - 16)),
            "0bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20, RoundTrip) {
  util::Prng rng(3);
  Bytes key(32);
  rng.fill(key);
  Bytes nonce(12);
  rng.fill(nonce);
  Bytes msg(3000);
  rng.fill(msg);
  ChaCha20 enc(key, nonce);
  ChaCha20 dec(key, nonce);
  EXPECT_EQ(dec.apply(enc.apply(msg)), msg);
}

// The scalar/SSE2/AVX2 kernels must be interchangeable: same keystream,
// byte for byte, on every message shape. Backends the host lacks resolve
// to the best available one, so the comparisons degrade to tautologies
// (never failures) on older CPUs.
class ChaChaBackends : public ::testing::Test {
 protected:
  void TearDown() override { chacha20_set_backend(ChaChaBackend::kAuto); }

  static Bytes encrypt_with(ChaChaBackend backend, ByteView msg,
                            std::uint32_t counter) {
    chacha20_set_backend(backend);
    Bytes key(32);
    for (std::size_t i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
    const Bytes nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                         0x4a, 0x00, 0x00, 0x00, 0x00};
    ChaCha20 cipher(key, nonce, counter);
    return cipher.apply(msg);
  }
};

TEST_F(ChaChaBackends, AllBackendsMatchRfc8439Vector) {
  // RFC 8439 §2.4.2 through every kernel, not just the default one.
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  for (const ChaChaBackend b : {ChaChaBackend::kScalar, ChaChaBackend::kSse2,
                                ChaChaBackend::kAvx2}) {
    const Bytes ct = encrypt_with(b, to_bytes(plaintext), 1);
    EXPECT_EQ(hex_encode(ByteView(ct).subspan(0, 16)),
              "6e2e359a2568f98041ba0728dd0d6981")
        << "backend " << static_cast<int>(b);
    EXPECT_EQ(hex_encode(ByteView(ct).subspan(ct.size() - 16)),
              "0bbf74a35be6b40b8eedf2785e42874d")
        << "backend " << static_cast<int>(b);
  }
}

TEST_F(ChaChaBackends, EquivalentAcrossTailLengthsAndOffsets) {
  // Sizes straddle every cascade boundary: sub-block tails, exact 64/128/
  // 256-byte multiples, and the +/-1 shapes that leave a partial block for
  // the buffered path after the widest kernel has eaten its share.
  util::Prng rng(7);
  for (const std::size_t size :
       {std::size_t{1}, std::size_t{63}, std::size_t{64}, std::size_t{65},
        std::size_t{127}, std::size_t{128}, std::size_t{129}, std::size_t{255},
        std::size_t{256}, std::size_t{257}, std::size_t{511}, std::size_t{512},
        std::size_t{1500}, std::size_t{4096}, std::size_t{4099}}) {
    Bytes msg(size);
    rng.fill(msg);
    const Bytes scalar = encrypt_with(ChaChaBackend::kScalar, msg, 0);
    const Bytes sse2 = encrypt_with(ChaChaBackend::kSse2, msg, 0);
    const Bytes avx2 = encrypt_with(ChaChaBackend::kAvx2, msg, 0);
    EXPECT_EQ(scalar, sse2) << "size " << size;
    EXPECT_EQ(scalar, avx2) << "size " << size;
  }
}

TEST_F(ChaChaBackends, EquivalentAcrossSplitStreams) {
  // One stream fed in ragged chunks must equal the one-shot stream no
  // matter which kernel serves the large middle pieces: the buffered
  // partial-block bytes and the counter have to line up across calls.
  util::Prng rng(11);
  Bytes msg(2048);
  rng.fill(msg);
  const Bytes oneshot = encrypt_with(ChaChaBackend::kScalar, msg, 5);
  const std::size_t splits[] = {1, 37, 64, 300, 256, 13, 1000, 377};
  for (const ChaChaBackend b : {ChaChaBackend::kSse2, ChaChaBackend::kAvx2}) {
    chacha20_set_backend(b);
    Bytes key(32);
    for (std::size_t i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
    const Bytes nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                         0x4a, 0x00, 0x00, 0x00, 0x00};
    ChaCha20 cipher(key, nonce, 5);
    Bytes chunked = msg;
    std::size_t off = 0;
    for (const std::size_t step : splits) {
      cipher.process(std::span<std::uint8_t>(chunked).subspan(off, step));
      off += step;
    }
    cipher.process(std::span<std::uint8_t>(chunked).subspan(off));
    EXPECT_EQ(chunked, oneshot) << "backend " << static_cast<int>(b);
  }
}

TEST_F(ChaChaBackends, UnalignedBufferOffsets) {
  // SIMD kernels use unaligned loads/stores; prove it by encrypting at
  // every offset inside an overaligned arena and comparing to scalar.
  util::Prng rng(13);
  alignas(64) std::array<std::uint8_t, 64 + 512> arena{};
  Bytes msg(512);
  rng.fill(msg);
  const Bytes want = encrypt_with(ChaChaBackend::kScalar, msg, 0);
  for (const ChaChaBackend b : {ChaChaBackend::kSse2, ChaChaBackend::kAvx2}) {
    for (std::size_t offset = 0; offset < 33; ++offset) {
      chacha20_set_backend(b);
      std::copy(msg.begin(), msg.end(), arena.begin() + offset);
      Bytes key(32);
      for (std::size_t i = 0; i < 32; ++i) {
        key[i] = static_cast<std::uint8_t>(i);
      }
      const Bytes nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                           0x4a, 0x00, 0x00, 0x00, 0x00};
      ChaCha20 cipher(key, nonce, 0);
      cipher.process(std::span<std::uint8_t>(arena).subspan(offset, msg.size()));
      EXPECT_TRUE(std::equal(want.begin(), want.end(), arena.begin() + offset))
          << "backend " << static_cast<int>(b) << " offset " << offset;
    }
  }
}

// ---- AEAD ---------------------------------------------------------------------

class AeadRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AeadRoundTrip, SealOpen) {
  util::Prng rng(4);
  Bytes key(kAeadKeyLen);
  rng.fill(key);
  Bytes msg(GetParam());
  rng.fill(msg);
  const Bytes ad = to_bytes("header");
  const Bytes sealed = aead_seal(key, 7, ad, msg);
  EXPECT_EQ(sealed.size(), msg.size() + kAeadTagLen);
  const auto opened = aead_open(key, 7, ad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AeadRoundTrip,
                         ::testing::Values(0, 1, 15, 16, 64, 1000, 1500));

TEST(Aead, RejectsTamperedCiphertext) {
  util::Prng rng(5);
  Bytes key(kAeadKeyLen);
  rng.fill(key);
  const Bytes msg = to_bytes("attack at dawn");
  Bytes sealed = aead_seal(key, 1, {}, msg);
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    Bytes corrupted = sealed;
    corrupted[i] ^= 0x01;
    EXPECT_FALSE(aead_open(key, 1, {}, corrupted).has_value())
        << "tampered byte " << i << " accepted";
  }
}

TEST(Aead, RejectsWrongSeqKeyAndAd) {
  util::Prng rng(6);
  Bytes key(kAeadKeyLen);
  rng.fill(key);
  Bytes other_key(kAeadKeyLen);
  rng.fill(other_key);
  const Bytes msg = to_bytes("payload");
  const Bytes sealed = aead_seal(key, 9, to_bytes("ad"), msg);
  EXPECT_FALSE(aead_open(key, 10, to_bytes("ad"), sealed).has_value());
  EXPECT_FALSE(aead_open(other_key, 9, to_bytes("ad"), sealed).has_value());
  EXPECT_FALSE(aead_open(key, 9, to_bytes("xx"), sealed).has_value());
  EXPECT_TRUE(aead_open(key, 9, to_bytes("ad"), sealed).has_value());
}

// ---- BigUint / DH ---------------------------------------------------------------

TEST(BigUint, BasicArithmetic) {
  const BigUint a(1234567890123456789ULL);
  const BigUint b(987654321ULL);
  EXPECT_EQ(BigUint::add(a, b).to_hex(), "112210f4b8c7e9c6");
  // (2^32 - 1)^2 lies below the prime 2^64 - 59, so squaring mod it is exact.
  EXPECT_EQ(BigUint::mod_pow(BigUint(0xffffffffULL), BigUint(2),
                             BigUint(0xffffffffffffffc5ULL))
                .to_hex(),
            "fffffffe00000001");
  EXPECT_EQ(BigUint::sub(a, b).to_hex(), "112210f4430b1864");
}

TEST(BigUint, HexRoundTrip) {
  const std::string hex = "deadbeefcafebabe0123456789abcdef00ff";
  EXPECT_EQ(BigUint::from_hex(hex).to_hex(), hex);
  EXPECT_EQ(BigUint().to_hex(), "0");
}

TEST(BigUint, Compare) {
  const BigUint two_to_127 = BigUint::from_hex("80000000000000000000000000000000");
  EXPECT_EQ(two_to_127.bit_length(), 128u);
  EXPECT_TRUE(two_to_127.bit(127));
  EXPECT_TRUE(BigUint(5) < BigUint(6));
  EXPECT_TRUE(BigUint::from_hex("10000000000000000") > BigUint(~0ULL));
}

TEST(BigUint, FromBytesPacksLimbs) {
  EXPECT_EQ(BigUint::from_bytes_be(util::hex_decode("000000").value()), BigUint());
  EXPECT_EQ(BigUint::from_bytes_be(util::hex_decode("0001020304050607080910").value())
                .to_hex(),
            "1020304050607080910");
  const std::string hex = std::string(2, '0') + std::string(256, 'a');
  EXPECT_EQ(BigUint::from_bytes_be(util::hex_decode(hex).value()).to_hex(),
            std::string(256, 'a'));
}

TEST(BigUint, ModPowSmallCases) {
  // 3^4 mod 7 = 4; 2^10 mod 1001 = 23.
  EXPECT_EQ(BigUint::mod_pow(BigUint(3), BigUint(4), BigUint(7)).to_hex(), "4");
  EXPECT_EQ(BigUint::mod_pow(BigUint(2), BigUint(10), BigUint(1001)).to_hex(), "17");
  // Fermat: a^(p-1) mod p == 1 for prime p.
  const BigUint p(1000000007ULL);
  EXPECT_EQ(BigUint::mod_pow(BigUint(123456), BigUint(1000000006ULL), p).to_hex(),
            "1");
}

TEST(BigUintDeathTest, ModPowRejectsBadOperands) {
  // Montgomery reduction needs an odd modulus and a reduced base.
  EXPECT_DEATH((void)BigUint::mod_pow(BigUint(2), BigUint(10), BigUint(1000)), "odd");
  EXPECT_DEATH((void)BigUint::mod_pow(BigUint(7), BigUint(10), BigUint(7)), "base");
}

// Test-only reference: left-to-right square-and-multiply where every
// product is reduced bit by bit (double-and-add, subtract m on overflow),
// so it shares nothing with the Montgomery kernel but add/sub/compare.
BigUint ref_mul_mod(const BigUint& a, const BigUint& b, const BigUint& m) {
  BigUint r;
  for (std::size_t i = b.bit_length(); i-- > 0;) {
    r = BigUint::add(r, r);
    if (r >= m) r = BigUint::sub(r, m);
    if (b.bit(i)) {
      r = BigUint::add(r, a);
      if (r >= m) r = BigUint::sub(r, m);
    }
  }
  return r;
}

BigUint ref_mod_pow(const BigUint& base, const BigUint& exp, const BigUint& m) {
  BigUint r(1);
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    r = ref_mul_mod(r, r, m);
    if (exp.bit(i)) r = ref_mul_mod(r, base, m);
  }
  return r;
}

BigUint random_below(util::Prng& rng, const BigUint& m) {
  // Same byte length as m, top byte strictly below m's: always < m.
  Bytes b = m.to_bytes_be();
  const std::uint8_t top = b[0];
  rng.fill(b);
  b[0] = top == 0 ? 0 : static_cast<std::uint8_t>(rng.uniform_u32(top));
  return BigUint::from_bytes_be(b);
}

TEST(BigUint, ModPowMatchesReference) {
  // Moduli of 1-4 limbs; random exponents of 1-2 limbs keep the bitwise
  // reference affordable in sanitizer builds.
  util::Prng rng(0xb16);
  std::vector<BigUint> moduli = {
      BigUint(3), BigUint(0xffffffffffffffc5ULL),  // 3 and 2^64 - 59
      BigUint::from_hex("ffffffffffffffff0000000000000001"),
      BigUint::from_hex("ffffffffffffffff123456789abcdef10fedcba987654321"),
  };
  for (int i = 0; i < 150; ++i) {
    Bytes b(8 * (1 + rng.uniform_u32(4)));
    rng.fill(b);
    b.back() |= 1;
    if (b[0] == 0) b[0] = 1;
    moduli.push_back(BigUint::from_bytes_be(b));
  }
  int cases = 0;
  for (const BigUint& m : moduli) {
    const BigUint m_minus_1 = BigUint::sub(m, BigUint(1));
    std::vector<BigUint> bases = {BigUint(0), BigUint(1), m_minus_1};
    for (int i = 0; i < 2; ++i) bases.push_back(random_below(rng, m));
    for (const BigUint& base : bases) {
      Bytes e(8 * (1 + rng.uniform_u32(2)));
      rng.fill(e);
      for (const BigUint& exp : {BigUint(0), BigUint(1), BigUint::from_bytes_be(e)}) {
        ASSERT_EQ(BigUint::mod_pow(base, exp, m), ref_mod_pow(base, exp, m))
            << "base=" << base.to_hex() << " exp=" << exp.to_hex()
            << " m=" << m.to_hex();
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 154 * 5 * 3);
}

TEST(BigUint, ModPowKnownAnswersModp1024) {
  // Expected values from Python's built-in pow(2, x, p), an independent
  // implementation.
  const BigUint& p = DhGroup::modp1024().p;
  const BigUint two(2);
  EXPECT_EQ(BigUint::mod_pow(two, BigUint(1), p).to_hex(), "2");
  EXPECT_EQ(BigUint::mod_pow(two, BigUint(2), p).to_hex(), "4");
  EXPECT_EQ(BigUint::mod_pow(two, BigUint::from_hex(std::string(256, 'f')), p).to_hex(),
            "e8b2d838973757cf8659cd297cd748716b2b57611b3da53126701dbac8b5e1b9"
            "aacbe7b2c478289a3de42bc26e918de214d04fc520a832b460c5734fb7910f3e"
            "1caaa9fa69acaf3e24a3442553e93ab1e468089310fac783454bbc59bdbf40be"
            "64da233ad23182cc0a1c22e89d17e0511512b859e8f31c383dedfb37e4048832");
  // 2^(p-2) is the inverse of 2, i.e. (p+1)/2.
  EXPECT_EQ(BigUint::mod_pow(two, BigUint::sub(p, two), p).to_hex(),
            "7fffffffffffffffe487ed5110b4611a62633145c06e0e68948127044533e63a"
            "0105df531d89cd9128a5043cc71a026ef7ca8cd9e69d218d98158536f92f8a1b"
            "a7f09ab6b6a8e122f242dabb312f3f637a262174d31bf6b585ffae5b7a035bf6"
            "f71c35fdad44cfd2d74f9208be258ff324943328f67329c10000000000000000");
}

TEST(BigUint, FermatOnDhGroups) {
  for (const DhGroup* group : {&DhGroup::modp1024(), &DhGroup::toy256()}) {
    const BigUint& p = group->p;
    EXPECT_EQ(BigUint::mod_pow(BigUint(2), BigUint::sub(p, BigUint(1)), p), BigUint(1))
        << p.to_hex();
  }
}

TEST(Dh, SharedSecretAgreesToy) {
  util::Prng rng(7);
  const auto& group = DhGroup::toy256();
  const auto alice = DhKeyPair::generate(group, rng);
  const auto bob = DhKeyPair::generate(group, rng);
  const Bytes s1 = alice.shared_secret(bob.public_value());
  const Bytes s2 = bob.shared_secret(alice.public_value());
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.size(), group.byte_len);
}

TEST(Dh, SharedSecretAgreesModp1024) {
  util::Prng rng(8);
  const auto& group = DhGroup::modp1024();
  const auto alice = DhKeyPair::generate(group, rng);
  const auto bob = DhKeyPair::generate(group, rng);
  EXPECT_EQ(alice.shared_secret_bytes(bob.public_bytes()),
            bob.shared_secret_bytes(alice.public_bytes()));
}

TEST(Dh, Modp1024BytesPinned) {
  // Recorded from the earlier bit-serial long-division implementation:
  // the modexp kernel may change, the DH bytes on the wire may not.
  util::Prng rng(8);
  const auto& group = DhGroup::modp1024();
  const auto alice = DhKeyPair::generate(group, rng);
  const auto bob = DhKeyPair::generate(group, rng);
  EXPECT_EQ(hex_encode(alice.public_bytes()),
            "f4eeac24e518f518b0de6a83b723edbc92657cf6a00ca022a8765688d609fb30"
            "f4293d29ade4ab110acc022347bab3f147ded90b7f19ba43c25b991567119137"
            "71fa83c0b2843a69ff539983567b38d487312cd491f17bd54a79644c4f075683"
            "3b84a70f2b14bc3aa785c847e40eebf9ff88f3d1062ef66cf4265f9ac0261cde");
  EXPECT_EQ(hex_encode(bob.public_bytes()),
            "a869156a9933011192e41aef1d21c5efe40ace2509bfee2c25ef3f8e05d64d1b"
            "31cf53df3e0aa412a538a8956e0c657ddccdf181ec0e07a486b6b198d24140cc"
            "459f5ab2bb66b805082702c19341e434855dd117c09b08de705cbd9768e44ff7"
            "f242b09b9fc6a13e83c782ba9f10af3991a85250ae49077a87ab9304186bde76");
  EXPECT_EQ(hex_encode(alice.shared_secret_bytes(bob.public_bytes())),
            "4e53b24f603f0509c569b1060e968d77b145d43cef15fc35315d4e2673cd8f06"
            "21d030f59e3df242e0ea72912fdb094fb100ab2664c385111675ec1e5875514e"
            "53d66cd8b4dd44ad6dbed779c8a541f41dc2cfb6560dc544b9bd36a5cdf56e7e"
            "4b06f360505721f6ba88e2b57e41fe84eec1d2e86ee00a5e1918ef3659fd71c5");
}

TEST(Dh, RejectsDegeneratePublicValues) {
  util::Prng rng(9);
  const auto& group = DhGroup::toy256();
  const auto kp = DhKeyPair::generate(group, rng);
  EXPECT_TRUE(kp.shared_secret(BigUint(0)).empty());
  EXPECT_TRUE(kp.shared_secret(BigUint(1)).empty());
  EXPECT_TRUE(kp.shared_secret(group.p).empty());
  // p - 1 has order 2: accepting it would force the secret to +-1.
  EXPECT_TRUE(kp.shared_secret(BigUint::sub(group.p, BigUint(1))).empty());
  EXPECT_EQ(kp.shared_secret(BigUint::sub(group.p, BigUint(2))).size(), group.byte_len);

  const auto& modp = DhGroup::modp1024();
  const auto big = DhKeyPair::generate(modp, rng);
  EXPECT_TRUE(big.shared_secret(BigUint::sub(modp.p, BigUint(1))).empty());
  Bytes oversized(modp.byte_len + 1, 0x5a);  // 129 bytes: >= 2^1024 > p
  EXPECT_TRUE(big.shared_secret_bytes(oversized).empty());
  EXPECT_EQ(big.shared_secret(BigUint(2)).size(), modp.byte_len);
}

// ---- WEP ----------------------------------------------------------------------

class WepRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(WepRoundTrip, EncryptDecrypt) {
  const auto [key_len, msg_len] = GetParam();
  util::Prng rng(10);
  Bytes key(key_len);
  rng.fill(key);
  Bytes msg(msg_len);
  rng.fill(msg);
  const WepIv iv = {0x12, 0x34, 0x56};
  const Bytes body = wep_encrypt(iv, key, msg, 2);
  EXPECT_EQ(body.size(), kWepIvLen + 1 + msg.size() + kWepIcvLen);
  const auto dec = wep_decrypt(body, key);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->plaintext, msg);
  EXPECT_EQ(dec->iv, iv);
  EXPECT_EQ(dec->key_id, 2);
}

INSTANTIATE_TEST_SUITE_P(
    KeyAndMessageSizes, WepRoundTrip,
    ::testing::Combine(::testing::Values(kWep40KeyLen, kWep104KeyLen),
                       ::testing::Values(1, 36, 256, 1500)));

TEST(Wep, WrongKeyFailsIcv) {
  const Bytes key = to_bytes("AAAAA");
  const Bytes wrong = to_bytes("BBBBB");
  const Bytes body = wep_encrypt({1, 2, 3}, key, to_bytes("hello world"));
  EXPECT_FALSE(wep_decrypt(body, wrong).has_value());
}

TEST(Wep, TamperedCiphertextFailsIcv) {
  const Bytes key = to_bytes("AAAAA");
  Bytes body = wep_encrypt({1, 2, 3}, key, to_bytes("hello world"));
  body[6] ^= 0xff;  // flip ciphertext
  EXPECT_FALSE(wep_decrypt(body, key).has_value());
}

TEST(Wep, BitFlipWithIcvFixupForgery) {
  // The classic WEP integrity failure: because CRC-32 is linear, an
  // attacker can flip plaintext bits AND patch the encrypted ICV without
  // knowing the key. Verifies our WEP is faithfully (in)secure.
  const Bytes key = to_bytes("AAAAA");
  const Bytes msg = to_bytes("pay 0001 dollars");
  Bytes body = wep_encrypt({9, 9, 9}, key, msg);

  Bytes delta(msg.size(), 0);
  delta[4] = '0' ^ '9';  // change amount 0001 -> 9001
  const std::uint32_t crc_zero = crc32(Bytes(msg.size(), 0));
  const std::uint32_t crc_delta = crc32(delta);
  const std::uint32_t icv_patch = crc_zero ^ crc_delta;

  const std::size_t data_off = kWepIvLen + 1;
  for (std::size_t i = 0; i < delta.size(); ++i) body[data_off + i] ^= delta[i];
  for (int i = 0; i < 4; ++i) {
    body[data_off + msg.size() + static_cast<std::size_t>(i)] ^=
        static_cast<std::uint8_t>(icv_patch >> (8 * i));
  }

  const auto dec = wep_decrypt(body, key);
  ASSERT_TRUE(dec.has_value()) << "forged frame failed ICV — WEP too strong!";
  EXPECT_EQ(util::to_string(dec->plaintext), "pay 9001 dollars");
}

TEST(Wep, WeakIvClassification) {
  EXPECT_TRUE(is_fms_weak_iv({3, 0xff, 0x00}, 5));
  EXPECT_TRUE(is_fms_weak_iv({7, 0xff, 0xaa}, 5));
  EXPECT_FALSE(is_fms_weak_iv({8, 0xff, 0xaa}, 5));   // beyond key len
  EXPECT_TRUE(is_fms_weak_iv({8, 0xff, 0xaa}, 13));
  EXPECT_FALSE(is_fms_weak_iv({3, 0xfe, 0x00}, 5));   // middle byte not 0xff
  EXPECT_FALSE(is_fms_weak_iv({2, 0xff, 0x00}, 5));   // below first key byte
}

TEST(Wep, SequentialIvGeneratorCountsLittleEndian) {
  WepIvGenerator gen(WepIvPolicy::kSequential, 5, 0);
  EXPECT_EQ(gen.next(), (WepIv{0, 0, 0}));
  EXPECT_EQ(gen.next(), (WepIv{1, 0, 0}));
  for (int i = 2; i < 256; ++i) (void)gen.next();
  EXPECT_EQ(gen.next(), (WepIv{0, 1, 0}));
}

TEST(Wep, SkipWeakGeneratorAvoidsWeakIvs) {
  WepIvGenerator gen(WepIvPolicy::kSkipWeak, 5, 0);
  for (int i = 0; i < 200000; ++i) {
    EXPECT_FALSE(is_fms_weak_iv(gen.next(), 5));
  }
}

TEST(Wep, SequentialGeneratorEmitsWeakIvs) {
  WepIvGenerator gen(WepIvPolicy::kSequential, 5, 0);
  int weak = 0;
  for (int i = 0; i < 70000; ++i) {
    if (is_fms_weak_iv(gen.next(), 5)) ++weak;
  }
  EXPECT_GT(weak, 0);
}


// ---- Block-wise kernel equivalence ------------------------------------------

TEST(ChaCha20, Rfc8439KeystreamBlock) {
  // RFC 8439 S2.3.2: key 00..1f, nonce 00:00:00:09:00:00:00:4a:00:00:00:00,
  // counter 1. Encrypting zeros exposes the raw keystream block.
  Bytes key(32);
  for (std::size_t i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  const Bytes nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                       0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  ChaCha20 cipher(key, nonce, 1);
  Bytes zeros(64, 0);
  cipher.process(zeros);
  EXPECT_EQ(hex_encode(zeros),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, SplitCallsMatchOneShot) {
  // The word-wise fast path keeps a partially consumed block across calls;
  // chunked processing at odd offsets must resume the keystream exactly.
  util::Prng rng(11);
  Bytes key(32);
  rng.fill(key);
  Bytes nonce(12);
  rng.fill(nonce);
  Bytes msg(4096);
  rng.fill(msg);
  for (int trial = 0; trial < 10; ++trial) {
    ChaCha20 one_shot(key, nonce, 7);
    Bytes expect = msg;
    one_shot.process(expect);

    ChaCha20 chunked(key, nonce, 7);
    Bytes got = msg;
    std::size_t off = 0;
    while (off < got.size()) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng.uniform_u32(130), got.size() - off);
      chunked.process(std::span<std::uint8_t>(got).subspan(off, n));
      off += n;
    }
    EXPECT_EQ(got, expect);
  }
}

namespace reference {

// Bit-by-bit CRC-32, the textbook definition the slicing tables derive from.
std::uint32_t crc32_bitwise(ByteView data) {
  std::uint32_t crc = 0xffffffffu;
  for (const std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xedb88320u : 0u);
    }
  }
  return ~crc;
}

// Plain byte-at-a-time RC4 keystream generator.
struct Rc4Bytewise {
  std::array<std::uint8_t, 256> s;
  std::uint8_t i = 0, j = 0;
  explicit Rc4Bytewise(ByteView key) {
    for (std::size_t k = 0; k < 256; ++k) s[k] = static_cast<std::uint8_t>(k);
    std::uint8_t acc = 0;
    for (std::size_t k = 0; k < 256; ++k) {
      acc = static_cast<std::uint8_t>(acc + s[k] + key[k % key.size()]);
      std::swap(s[k], s[acc]);
    }
  }
  std::uint8_t next() {
    ++i;
    j = static_cast<std::uint8_t>(j + s[i]);
    std::swap(s[i], s[j]);
    return s[static_cast<std::uint8_t>(s[i] + s[j])];
  }
};

// MD5 as a single 64-step loop with a per-step round branch: the
// straightforward RFC 1321 transcription the unrolled kernel replaced.
Md5Digest md5_loop(ByteView data) {
  static constexpr std::uint32_t kShift[4][4] = {
      {7, 12, 17, 22}, {5, 9, 14, 20}, {4, 11, 16, 23}, {6, 10, 15, 21}};
  std::array<std::uint32_t, 64> sines;
  for (std::size_t i = 0; i < 64; ++i) {
    sines[i] = static_cast<std::uint32_t>(
        std::floor(std::fabs(std::sin(static_cast<double>(i + 1))) * 4294967296.0));
  }
  Bytes msg(data.begin(), data.end());
  const std::uint64_t bit_len = static_cast<std::uint64_t>(data.size()) * 8;
  msg.push_back(0x80);
  while (msg.size() % 64 != 56) msg.push_back(0);
  for (std::size_t i = 0; i < 8; ++i) msg.push_back(static_cast<std::uint8_t>(bit_len >> (8 * i)));

  std::uint32_t st[4] = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u};
  for (std::size_t blk = 0; blk < msg.size(); blk += 64) {
    std::uint32_t m[16];
    for (std::size_t i = 0; i < 16; ++i) {
      m[i] = static_cast<std::uint32_t>(msg[blk + 4 * i]) |
             (static_cast<std::uint32_t>(msg[blk + 4 * i + 1]) << 8) |
             (static_cast<std::uint32_t>(msg[blk + 4 * i + 2]) << 16) |
             (static_cast<std::uint32_t>(msg[blk + 4 * i + 3]) << 24);
    }
    std::uint32_t a = st[0], b = st[1], c = st[2], d = st[3];
    for (std::uint32_t i = 0; i < 64; ++i) {
      std::uint32_t f = 0;
      std::uint32_t g = 0;
      if (i < 16) {
        f = (b & c) | (~b & d);
        g = i;
      } else if (i < 32) {
        f = (d & b) | (~d & c);
        g = (5 * i + 1) % 16;
      } else if (i < 48) {
        f = b ^ c ^ d;
        g = (3 * i + 5) % 16;
      } else {
        f = c ^ (b | ~d);
        g = (7 * i) % 16;
      }
      const std::uint32_t tmp = d;
      d = c;
      c = b;
      b = b + std::rotl(a + f + sines[i] + m[g], static_cast<int>(kShift[i / 16][i % 4]));
      a = tmp;
    }
    st[0] += a;
    st[1] += b;
    st[2] += c;
    st[3] += d;
  }
  Md5Digest out{};
  for (std::size_t i = 0; i < 16; ++i) out[i] = static_cast<std::uint8_t>(st[i / 4] >> (8 * (i % 4)));
  return out;
}

}  // namespace reference

TEST(Crc32, MatchesBitwiseReference) {
  util::Prng rng(12);
  for (int trial = 0; trial < 30; ++trial) {
    Bytes data(rng.uniform_u32(300));
    rng.fill(data);
    EXPECT_EQ(crc32(data), reference::crc32_bitwise(data));
    // Chunked updates at odd split points hit the unaligned head/tail paths.
    Crc32 inc;
    const std::size_t split = data.empty() ? 0 : rng.uniform_u32(
        static_cast<std::uint32_t>(data.size()));
    inc.update(ByteView(data).subspan(0, split));
    inc.update(ByteView(data).subspan(split));
    EXPECT_EQ(inc.value(), reference::crc32_bitwise(data));
  }
}

TEST(Rc4, MatchesBytewiseReference) {
  util::Prng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    Bytes key(1 + rng.uniform_u32(16));
    rng.fill(key);
    Bytes msg(1 + rng.uniform_u32(700));
    rng.fill(msg);
    reference::Rc4Bytewise ref(key);
    Bytes expect = msg;
    for (auto& b : expect) b ^= ref.next();
    Rc4 fast(key);
    Bytes got = msg;
    fast.process(got);
    EXPECT_EQ(got, expect);
  }
}

TEST(Md5, MatchesLoopReference) {
  // Every length up to 200 (all padding shapes), then random ones.
  util::Prng rng(14);
  for (std::uint32_t trial = 0; trial < 300; ++trial) {
    Bytes data(trial <= 200 ? trial : rng.uniform_u32(5000));
    rng.fill(data);
    EXPECT_EQ(md5(data), reference::md5_loop(data)) << "size " << data.size();
  }
}

}  // namespace
}  // namespace rogue::crypto

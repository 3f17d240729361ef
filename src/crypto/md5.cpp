#include "crypto/md5.hpp"

#include <bit>
#include <cstring>

namespace rogue::crypto {

namespace {
// Sine-derived constants from RFC 1321, 16 per round.
constexpr std::array<std::uint32_t, 64> kSines = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
    0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
    0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
    0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
    0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
    0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
    0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
    0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391};

// The round function of RFC 1321 §3.4, chosen at compile time.
template <std::size_t kRound>
inline std::uint32_t round_fn(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  if constexpr (kRound == 0) return (b & c) | (~b & d);
  else if constexpr (kRound == 1) return (d & b) | (~d & c);
  else if constexpr (kRound == 2) return b ^ c ^ d;
  else return c ^ (b | ~d);
}

/// One 16-step round: message word g(i) = (kMul * i + kAdd) mod 16 and the
/// four rotate amounts S0..S3 are template constants, so once the
/// four-iteration loop unrolls every index and rotate is an immediate.
template <std::size_t kRound, std::size_t kMul, std::size_t kAdd, int S0, int S1,
          int S2, int S3>
inline void md5_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                      std::uint32_t& d, const std::uint32_t* m) {
  constexpr std::size_t kBase = 16 * kRound;
#pragma GCC unroll 4
  for (std::size_t i = 0; i < 16; i += 4) {
    a = b + std::rotl(a + round_fn<kRound>(b, c, d) + kSines[kBase + i] +
                          m[(kMul * i + kAdd) % 16], S0);
    d = a + std::rotl(d + round_fn<kRound>(a, b, c) + kSines[kBase + i + 1] +
                          m[(kMul * (i + 1) + kAdd) % 16], S1);
    c = d + std::rotl(c + round_fn<kRound>(d, a, b) + kSines[kBase + i + 2] +
                          m[(kMul * (i + 2) + kAdd) % 16], S2);
    b = c + std::rotl(b + round_fn<kRound>(c, d, a) + kSines[kBase + i + 3] +
                          m[(kMul * (i + 3) + kAdd) % 16], S3);
  }
}
}  // namespace

Md5::Md5() : state_{0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u} {}

void Md5::process_block(const std::uint8_t* block) {
  std::array<std::uint32_t, 16> m;
  std::memcpy(m.data(), block, 64);  // little-endian host assumed (x86/arm)
  std::uint32_t a = state_[0];
  std::uint32_t b = state_[1];
  std::uint32_t c = state_[2];
  std::uint32_t d = state_[3];

  // Step i of round r uses message word (k*i + j) mod 16 with (k, j) =
  // (1, 0), (5, 1), (3, 5), (7, 0) for r = 0..3.
  md5_round<0, 1, 0, 7, 12, 17, 22>(a, b, c, d, m.data());
  md5_round<1, 5, 1, 5, 9, 14, 20>(a, b, c, d, m.data());
  md5_round<2, 3, 5, 4, 11, 16, 23>(a, b, c, d, m.data());
  md5_round<3, 7, 0, 6, 10, 15, 21>(a, b, c, d, m.data());

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

void Md5::update(util::ByteView data) {
  if (data.empty()) return;  // empty spans may carry a null data()
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == buffer_.size()) {
      process_block(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (data.size() - offset >= 64) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Md5Digest Md5::finish() {
  // 0x80, zero fill, then the 64-bit little-endian bit length in the last
  // 8 bytes: one block, or two when fewer than 9 bytes are left.
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, buffer_.size() - buffer_len_);
    process_block(buffer_.data());
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  }
  process_block(buffer_.data());

  Md5Digest out{};
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t b = 0; b < 4; ++b) {
      out[i * 4 + b] = static_cast<std::uint8_t>(state_[i] >> (8 * b));
    }
  }
  return out;
}

Md5Digest md5(util::ByteView data) {
  Md5 h;
  h.update(data);
  return h.finish();
}

std::string md5_hex(util::ByteView data) {
  const Md5Digest d = md5(data);
  return util::hex_encode(util::ByteView(d.data(), d.size()));
}

}  // namespace rogue::crypto

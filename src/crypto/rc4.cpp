#include "crypto/rc4.hpp"

#include <numeric>
#include <utility>

#include "util/assert.hpp"

namespace rogue::crypto {

Rc4::Rc4(util::ByteView key) {
  ROGUE_ASSERT_MSG(!key.empty() && key.size() <= 256, "RC4 key must be 1..256 bytes");
  std::iota(s_.begin(), s_.end(), 0);
  std::uint8_t j = 0;
  std::size_t k = 0;  // i % key.size(), kept by wrapping instead of dividing
  for (std::size_t i = 0; i < 256; ++i) {
    j = static_cast<std::uint8_t>(j + s_[i] + key[k]);
    std::swap(s_[i], s_[j]);
    if (++k == key.size()) k = 0;
  }
}

std::uint8_t Rc4::next() {
  i_ = static_cast<std::uint8_t>(i_ + 1);
  j_ = static_cast<std::uint8_t>(j_ + s_[i_]);
  std::swap(s_[i_], s_[j_]);
  return s_[static_cast<std::uint8_t>(s_[i_] + s_[j_])];
}

void Rc4::process(std::span<std::uint8_t> data) {
  // Batched keystream generation: the PRGA indices live in locals for the
  // whole run instead of round-tripping through members on every byte, and
  // the swap is expressed as two stores so s_[i]/s_[j] load only once.
  std::uint8_t i = i_;
  std::uint8_t j = j_;
  auto& s = s_;
  for (auto& b : data) {
    i = static_cast<std::uint8_t>(i + 1);
    const std::uint8_t si = s[i];
    j = static_cast<std::uint8_t>(j + si);
    const std::uint8_t sj = s[j];
    s[i] = sj;
    s[j] = si;
    b ^= s[static_cast<std::uint8_t>(si + sj)];
  }
  i_ = i;
  j_ = j;
}

util::Bytes Rc4::apply(util::ByteView data) {
  util::Bytes out(data.begin(), data.end());
  process(out);
  return out;
}

}  // namespace rogue::crypto

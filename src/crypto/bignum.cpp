#include "crypto/bignum.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>

#include "util/assert.hpp"

namespace rogue::crypto {

namespace {
__extension__ using u128 = unsigned __int128;

constexpr std::size_t kMaxLimbs = 16;  // 1024-bit moduli
constexpr std::size_t kWindow = 5;     // exponent bits per table lookup
using Limbs = std::array<std::uint64_t, kMaxLimbs>;

/// Arithmetic modulo an odd n-limb m in Montgomery form, R = 2^(64n).
/// Every Limbs value is < m; limbs at and above n stay zero.
struct Montgomery {
  Limbs m{};
  std::size_t n = 0;
  std::uint64_t m_inv = 0;  ///< -m^-1 mod 2^64

  /// x -= m when x + carry * 2^(64n) >= m. Exact for inputs below 2m.
  void sub_if_ge(Limbs& x, std::uint64_t carry) const {
    Limbs d{};
    std::uint64_t borrow = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const u128 diff = static_cast<u128>(x[j]) - m[j] - borrow;
      d[j] = static_cast<std::uint64_t>(diff);
      borrow = static_cast<std::uint64_t>(diff >> 64) & 1;
    }
    if (carry != 0 || borrow == 0) x = d;
  }

  /// x = 2x mod m.
  void double_mod(Limbs& x) const {
    const std::uint64_t carry = x[n - 1] >> 63;
    for (std::size_t j = n - 1; j > 0; --j) x[j] = (x[j] << 1) | (x[j - 1] >> 63);
    x[0] <<= 1;
    sub_if_ge(x, carry);
  }

  /// out = a * b * R^-1 mod m by coarsely integrated operand scanning
  /// (CIOS). `out` may alias `a` or `b`.
  void mul(const Limbs& a, const Limbs& b, Limbs& out) const {
    std::array<std::uint64_t, kMaxLimbs + 2> t{};
    for (std::size_t i = 0; i < n; ++i) {
      u128 c = 0;
      for (std::size_t j = 0; j < n; ++j) {
        c += static_cast<u128>(a[j]) * b[i] + t[j];
        t[j] = static_cast<std::uint64_t>(c);
        c >>= 64;
      }
      c += t[n];
      t[n] = static_cast<std::uint64_t>(c);
      t[n + 1] = static_cast<std::uint64_t>(c >> 64);
      // Add q*m, q chosen so the low limb cancels, and shift down a limb.
      const std::uint64_t q = t[0] * m_inv;
      c = (static_cast<u128>(q) * m[0] + t[0]) >> 64;
      for (std::size_t j = 1; j < n; ++j) {
        c += static_cast<u128>(q) * m[j] + t[j];
        t[j - 1] = static_cast<std::uint64_t>(c);
        c >>= 64;
      }
      c += t[n];
      t[n - 1] = static_cast<std::uint64_t>(c);
      t[n] = t[n + 1] + static_cast<std::uint64_t>(c >> 64);
    }
    // a, b < m gives t < 2m.
    std::copy_n(t.begin(), n, out.begin());
    sub_if_ge(out, t[n]);
  }
};

}  // namespace

BigUint::BigUint(std::uint64_t v) {
  if (v != 0) limbs_.push_back(v);
}

void BigUint::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUint BigUint::from_bytes_be(util::ByteView bytes) {
  BigUint out;
  out.limbs_.assign((bytes.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const std::size_t k = bytes.size() - 1 - i;  // byte weight: 256^k
    out.limbs_[k / 8] |= static_cast<std::uint64_t>(bytes[i]) << (8 * (k % 8));
  }
  out.trim();
  return out;
}

BigUint BigUint::from_hex(std::string_view hex) {
  std::string clean;
  for (const char c : hex) {
    if (c != ' ' && c != '\n' && c != '\t') clean.push_back(c);
  }
  if (clean.size() % 2 == 1) clean.insert(clean.begin(), '0');
  const auto bytes = util::hex_decode(clean);
  ROGUE_ASSERT_MSG(bytes.has_value(), "invalid hex in BigUint::from_hex");
  return from_bytes_be(*bytes);
}

util::Bytes BigUint::to_bytes_be(std::size_t pad_to) const {
  const std::size_t used = (bit_length() + 7) / 8;
  util::Bytes out(std::max(used, pad_to), 0);
  for (std::size_t k = 0; k < used; ++k) {
    out[out.size() - 1 - k] = static_cast<std::uint8_t>(limbs_[k / 8] >> (8 * (k % 8)));
  }
  return out;
}

std::string BigUint::to_hex() const {
  if (is_zero()) return "0";
  const std::string s = util::hex_encode(to_bytes_be());
  return s.substr(s.find_first_not_of('0'));
}

std::size_t BigUint::bit_length() const {
  if (limbs_.empty()) return 0;
  return (limbs_.size() - 1) * 64 + static_cast<std::size_t>(std::bit_width(limbs_.back()));
}

bool BigUint::bit(std::size_t i) const {
  return i / 64 < limbs_.size() && ((limbs_[i / 64] >> (i % 64)) & 1u) != 0;
}

int BigUint::compare(const BigUint& a, const BigUint& b) {
  if (a.limbs_.size() != b.limbs_.size()) return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigUint BigUint::add(const BigUint& a, const BigUint& b) {
  BigUint out;
  const std::size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n, 0);
  u128 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    u128 sum = carry;
    if (i < a.limbs_.size()) sum += a.limbs_[i];
    if (i < b.limbs_.size()) sum += b.limbs_[i];
    out.limbs_[i] = static_cast<std::uint64_t>(sum);
    carry = sum >> 64;
  }
  if (carry != 0) out.limbs_.push_back(static_cast<std::uint64_t>(carry));
  return out;
}

BigUint BigUint::sub(const BigUint& a, const BigUint& b) {
  ROGUE_ASSERT_MSG(compare(a, b) >= 0, "BigUint::sub underflow");
  BigUint out;
  out.limbs_.resize(a.limbs_.size(), 0);
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    const std::uint64_t bv = i < b.limbs_.size() ? b.limbs_[i] : 0;
    const u128 diff = static_cast<u128>(a.limbs_[i]) - bv - borrow;
    out.limbs_[i] = static_cast<std::uint64_t>(diff);
    borrow = static_cast<std::uint64_t>(diff >> 64) & 1;
  }
  out.trim();
  return out;
}

BigUint BigUint::mod_pow(const BigUint& base, const BigUint& exp, const BigUint& m) {
  ROGUE_ASSERT_MSG(m.bit(0) && compare(m, BigUint(1)) > 0, "modulus must be odd and > 1");
  ROGUE_ASSERT_MSG(m.limbs_.size() <= kMaxLimbs, "modulus wider than 1024 bits");
  ROGUE_ASSERT_MSG(compare(base, m) < 0, "base must be < modulus");

  Montgomery mont;
  mont.n = m.limbs_.size();
  std::copy(m.limbs_.begin(), m.limbs_.end(), mont.m.begin());
  // -m^-1 mod 2^64 by Newton's iteration: m*m = 1 mod 8 for odd m, and
  // each step doubles the correct low bits (3 -> 6 -> ... -> 96).
  std::uint64_t inv = mont.m[0];
  for (int i = 0; i < 5; ++i) inv *= 2 - mont.m[0] * inv;
  mont.m_inv = 0 - inv;
  // R mod m: 2^(bits-1) < m, doubled up to 2^(64n).
  const std::size_t top = m.bit_length() - 1;
  Limbs r{};
  r[top / 64] = std::uint64_t{1} << (top % 64);
  for (std::size_t i = top; i < 64 * mont.n; ++i) mont.double_mod(r);
  // R^2 mod m is 2^(64n) in Montgomery form. Squaring doubles the exponent,
  // so double R up to the odd part k of 64n = k * 2^s, then square s times.
  const int s = std::countr_zero(64 * mont.n);
  Limbs r2 = r;
  for (std::size_t i = 0; i < (64 * mont.n) >> s; ++i) mont.double_mod(r2);
  for (int i = 0; i < s; ++i) mont.mul(r2, r2, r2);

  // table[d] = base^d in Montgomery form, d >= 1.
  std::array<Limbs, 1u << kWindow> table{};
  std::copy(base.limbs_.begin(), base.limbs_.end(), table[1].begin());
  mont.mul(table[1], r2, table[1]);
  for (std::size_t d = 2; d < table.size(); ++d) mont.mul(table[d - 1], table[1], table[d]);

  // Fixed window, most significant first; acc starts at R, i.e. 1.
  Limbs acc = r;
  for (std::size_t w = (exp.bit_length() + kWindow - 1) / kWindow; w-- > 0;) {
    std::size_t digit = 0;
    for (std::size_t b = kWindow; b-- > 0;) digit = (digit << 1) | exp.bit(w * kWindow + b);
    for (std::size_t i = 0; i < kWindow; ++i) mont.mul(acc, acc, acc);
    if (digit != 0) mont.mul(acc, table[digit], acc);
  }
  mont.mul(acc, Limbs{1}, acc);  // times plain 1 leaves Montgomery form

  BigUint out;
  out.limbs_.assign(acc.begin(), acc.begin() + static_cast<std::ptrdiff_t>(mont.n));
  out.trim();
  return out;
}

}  // namespace rogue::crypto

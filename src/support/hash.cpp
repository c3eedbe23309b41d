#include "support/hash.hpp"

namespace glaf {
namespace {

// FNV-1a-128 per the published parameters:
//   offset basis = 144066263297769815596495629667062367629
//   prime        = 2^88 + 2^8 + 0x3b = 309485009821345068724781371
// The prime's shape makes the multiply cheap in two 64-bit lanes:
// h * prime = h * 0x13b + (h << 88) mod 2^128, and the shift only adds
// lo << 24 to the high lane. Plain 64-bit arithmetic keeps the result
// independent of __int128 and of byte order.
constexpr Hash128 kOffset128 = {0x6c62272e07bb0142ull, 0x62b821756295c58dull};
constexpr std::uint64_t kPrimeLow = 0x13b;

Hash128 mul_prime(const Hash128& h) {
  // High 64 bits of lo * 0x13b, from the 32-bit halves of lo.
  const std::uint64_t carry =
      ((h.lo >> 32) * kPrimeLow + ((h.lo & 0xffffffffu) * kPrimeLow >> 32)) >>
      32;
  return {h.hi * kPrimeLow + carry + (h.lo << 24), h.lo * kPrimeLow};
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t state) {
  for (const char c : bytes) {
    state ^= static_cast<unsigned char>(c);
    state *= kFnv1a64Prime;
  }
  return state;
}

Hash128 fnv1a128_offset() { return kOffset128; }

Hash128 fnv1a128(std::string_view bytes, const Hash128& state) {
  Hash128 h = state;
  for (const char c : bytes) {
    h.lo ^= static_cast<unsigned char>(c);
    h = mul_prime(h);
  }
  return h;
}

Hash128 fnv1a128(std::string_view bytes) {
  return fnv1a128(bytes, fnv1a128_offset());
}

std::string hex_digest(const Hash128& h) {
  static const char* kHex = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t lane = i < 8 ? h.hi : h.lo;
    const int shift = 8 * (7 - (i % 8));
    const unsigned byte = static_cast<unsigned>((lane >> shift) & 0xffu);
    out[static_cast<std::size_t>(2 * i)] = kHex[byte >> 4];
    out[static_cast<std::size_t>(2 * i + 1)] = kHex[byte & 0xfu];
  }
  return out;
}

std::string content_digest(std::string_view bytes) {
  return hex_digest(fnv1a128(bytes));
}

}  // namespace glaf

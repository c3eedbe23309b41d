// Stable-hash tests: FNV-1a is pinned against published test vectors so
// a refactor can never silently change kernel-cache keys or fuzzer
// corpus dedup digests.

#include <string>

#include <gtest/gtest.h>

#include "support/hash.hpp"

namespace glaf {
namespace {

TEST(Fnv1a64, MatchesPublishedVectors) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);  // offset basis
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1a64, ChainingEqualsConcatenation) {
  EXPECT_EQ(fnv1a64("bar", fnv1a64("foo")), fnv1a64("foobar"));
}

TEST(Fnv1a128, OffsetBasisIsPinned) {
  // 144066263297769815596495629667062367629
  //   = 0x6c62272e07bb014262b821756295c58d
  const Hash128 offset = fnv1a128_offset();
  EXPECT_EQ(offset.hi, 0x6c62272e07bb0142ull);
  EXPECT_EQ(offset.lo, 0x62b821756295c58dull);
  EXPECT_EQ(fnv1a128(""), offset);
}

TEST(Fnv1a128, MatchesPublishedVectors) {
  EXPECT_EQ(content_digest("a"), "d228cb696f1a8caf78912b704e4a8964");
  EXPECT_EQ(content_digest("foobar"), "343e1662793c64bf6f0d3597ba446f18");
  // A long input carries through every lane of the multiply, all 256
  // byte values included (digest of the four-limb reference multiply).
  std::string bytes;
  for (int i = 0; i < 4096; ++i) {
    bytes.push_back(static_cast<char>((i * 131 + 7) & 0xff));
  }
  EXPECT_EQ(content_digest(bytes), "b6182cb53ee0d0dc6d2be0287852a58d");
}

TEST(Fnv1a128, DistinguishesFieldBoundaries) {
  // NUL separators in callers must produce distinct digests for
  // distinct splits of the same bytes.
  const Hash128 ab_c = fnv1a128("c", fnv1a128(std::string("ab\0", 3)));
  const Hash128 a_bc = fnv1a128("bc", fnv1a128(std::string("a\0", 2)));
  EXPECT_NE(ab_c, a_bc);
}

TEST(Fnv1a128, ChainingEqualsConcatenation) {
  EXPECT_EQ(fnv1a128("bar", fnv1a128("foo")), fnv1a128("foobar"));
  EXPECT_NE(fnv1a128("foo"), fnv1a128("bar"));
}

TEST(HexDigest, FixedWidthLowercaseBigEndian) {
  EXPECT_EQ(hex_digest(fnv1a128_offset()),
            "6c62272e07bb014262b821756295c58d");
  EXPECT_EQ(content_digest(""), "6c62272e07bb014262b821756295c58d");
  const std::string d = content_digest("hello");
  EXPECT_EQ(d.size(), 32u);
  EXPECT_EQ(d.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_NE(d, content_digest("hellp"));
}

}  // namespace
}  // namespace glaf

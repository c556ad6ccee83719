#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/fsio.hpp"
#include "util/growbuf.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace rtcad {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
}

TEST(Rng, UniformInRange) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Strings, Split) {
  auto t = split("  a b\tc  ");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[2], "c");
  EXPECT_TRUE(split("").empty());
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x \t\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with(".model foo", ".model"));
  EXPECT_FALSE(starts_with(".mod", ".model"));
}

TEST(Strings, Strprintf) {
  EXPECT_EQ(strprintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strprintf("%.1f", 2.25), "2.2");
}

TEST(Table, RendersAligned) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| alpha |"), std::string::npos);
  EXPECT_NE(s.find("|    22 |"), std::string::npos);  // right aligned
}

TEST(Fsio, ReadFileIfExistsTellsAbsentFromUnreadable) {
  const std::string dir = ::testing::TempDir() + "/rtcad_fsio";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/entry";
  EXPECT_FALSE(read_file_if_exists(path).has_value());

  // Larger than one read chunk, with a NUL byte inside.
  const std::string bytes = std::string("a\0b", 3) + std::string(70000, 'x');
  atomic_write_file(path, bytes);
  EXPECT_EQ(read_file_if_exists(path), bytes);
  // A path through a regular file names nothing: absent, not an error.
  EXPECT_FALSE(read_file_if_exists(path + "/below").has_value());
  // A directory exists but holds no bytes to read.
  EXPECT_THROW(read_file_if_exists(dir), Error);
  std::filesystem::remove_all(dir);
}

TEST(GrowBuf, PushAndAppendAcrossTheMappingThreshold) {
  // 3 M ints is 12 MB, so the buffer grows from a malloc block through the
  // switch to a mapping (at GrowBuf::kMapBytes) to several mremap growths.
  constexpr std::size_t kCount = 3'000'000;
  static_assert(kCount * sizeof(int) > 8 * GrowBuf<int>::kMapBytes);
  GrowBuf<int> buf;
  std::size_t growths = 0;
  const auto check_all = [&] {
    for (std::size_t i = 0; i < buf.size(); ++i)
      ASSERT_EQ(buf[i], static_cast<int>(i)) << "value " << i;
  };
  std::vector<int> chunk;
  while (buf.size() < kCount && !::testing::Test::HasFailure()) {
    const std::size_t cap = buf.capacity();
    const auto next = static_cast<int>(buf.size());
    if (next % 3 == 0) {
      buf.push_back(next);
    } else {
      // Odd-sized chunks, so appends straddle each growth.
      chunk.clear();
      for (int k = 0; k <= next % 997; ++k) chunk.push_back(next + k);
      buf.append(chunk.data(), chunk.size());
    }
    if (buf.capacity() != cap) {
      ++growths;
      check_all();
    }
  }
  EXPECT_GE(buf.size(), kCount);
  EXPECT_GE(buf.capacity() * sizeof(int), 8 * GrowBuf<int>::kMapBytes);
  EXPECT_GE(growths, 10u);
  check_all();
  std::size_t sum = 0;
  for (const int v : buf) sum += static_cast<std::size_t>(v);
  EXPECT_EQ(sum, buf.size() * (buf.size() - 1) / 2);
}

TEST(GrowBuf, CopyIsDeepExactSizeAndIndependent) {
  // One buffer below the mapping threshold and one above it.
  for (const std::size_t n : {std::size_t{1000}, std::size_t{1'000'000}}) {
    GrowBuf<std::uint64_t> src;
    for (std::size_t i = 0; i < n; ++i) src.push_back(3 * i);
    ASSERT_GT(src.capacity(), src.size()) << n;
    GrowBuf<std::uint64_t> copy(src);
    EXPECT_EQ(copy.size(), n);
    EXPECT_EQ(copy.capacity(), n);
    EXPECT_NE(copy.data(), src.data());
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(copy[i], 3 * i) << n;
    // Writes to either side stay on that side.
    copy[0] = 7;
    src[1] = 8;
    copy.push_back(9);
    EXPECT_EQ(src[0], 0u);
    EXPECT_EQ(copy[1], 3u);
    EXPECT_EQ(src.size(), n);
    EXPECT_EQ(copy[n], 9u);
  }
  const GrowBuf<int> empty;
  const GrowBuf<int> empty_copy(empty);
  EXPECT_EQ(empty_copy.size(), 0u);
  EXPECT_EQ(empty_copy.capacity(), 0u);
}

TEST(GrowBuf, MoveLeavesTheSourceEmpty) {
  for (const std::size_t n : {std::size_t{100}, std::size_t{1'000'000}}) {
    GrowBuf<int> src;
    for (std::size_t i = 0; i < n; ++i) src.push_back(static_cast<int>(i));
    const int* data = src.data();
    GrowBuf<int> moved(std::move(src));
    EXPECT_EQ(moved.data(), data);
    EXPECT_EQ(moved.size(), n);
    EXPECT_EQ(src.size(), 0u);
    EXPECT_EQ(src.capacity(), 0u);
    EXPECT_EQ(src.data(), nullptr);
    EXPECT_EQ(moved[n - 1], static_cast<int>(n - 1));
    // A moved-from buffer is usable again.
    src.push_back(5);
    EXPECT_EQ(src[0], 5);
  }
}

TEST(GrowBuf, ClearKeepsTheCapacity) {
  // A mapped buffer: refilling it to the same size neither grows it nor
  // maps it again.
  GrowBuf<int> buf;
  const std::size_t n = 2 * GrowBuf<int>::kMapBytes / sizeof(int);
  for (std::size_t i = 0; i < n; ++i) buf.push_back(static_cast<int>(i));
  const std::size_t cap = buf.capacity();
  const int* data = buf.data();
  buf.clear();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.capacity(), cap);
  for (std::size_t i = 0; i < n; ++i) buf.push_back(-static_cast<int>(i));
  EXPECT_EQ(buf.capacity(), cap);
  EXPECT_EQ(buf.data(), data);
  EXPECT_EQ(buf[n - 1], -static_cast<int>(n - 1));
  // reserve() below the capacity is a no-op.
  buf.reserve(1);
  EXPECT_EQ(buf.capacity(), cap);
  buf.reserve(cap + 1);
  EXPECT_GT(buf.capacity(), cap);
  EXPECT_EQ(buf[n - 1], -static_cast<int>(n - 1));
}

#ifdef RTCAD_GROWBUF_POISONS
// Under AddressSanitizer the unused capacity is poisoned, on the malloc path
// and inside a mapping alike, so a write past size() is reported.
TEST(GrowBufDeathTest, WritePastSizeIsReported) {
  for (const std::size_t n :
       {std::size_t{16}, GrowBuf<int>::kMapBytes / sizeof(int)}) {
    EXPECT_DEATH(
        {
          GrowBuf<int> buf;
          buf.reserve(2 * n);
          for (std::size_t i = 0; i < n; ++i) buf.push_back(1);
          *static_cast<volatile int*>(buf.data() + n) = 2;
        },
        "use-after-poison")
        << n << " ints";
  }
}
#endif

}  // namespace
}  // namespace rtcad

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "util/bitvec.hpp"
#include "util/check.hpp"
#include "util/fsio.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace rtcad {
namespace {

TEST(BitVec, SetTestReset) {
  BitVec b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_TRUE(b.none());
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 3u);
  b.reset(64);
  EXPECT_EQ(b.count(), 2u);
}

TEST(BitVec, FindIteration) {
  BitVec b(200);
  const std::size_t bits[] = {3, 63, 64, 65, 130, 199};
  for (auto i : bits) b.set(i);
  std::vector<std::size_t> seen;
  for (std::size_t i = b.find_first(); i < b.size(); i = b.find_next(i))
    seen.push_back(i);
  EXPECT_EQ(seen, std::vector<std::size_t>(std::begin(bits), std::end(bits)));
}

TEST(BitVec, FindFirstEmpty) {
  BitVec b(77);
  EXPECT_EQ(b.find_first(), 77u);
}

TEST(BitVec, SetAllRespectsSize) {
  BitVec b(70);
  b.set_all();
  EXPECT_EQ(b.count(), 70u);
  b.resize(80);
  EXPECT_EQ(b.count(), 70u);  // new bits zero
}

TEST(BitVec, ResizeWithValueFillsTail) {
  BitVec b(10);
  b.resize(100, true);
  EXPECT_EQ(b.count(), 90u);
  EXPECT_FALSE(b.test(5));
  EXPECT_TRUE(b.test(10));
  EXPECT_TRUE(b.test(99));
}

TEST(BitVec, SetOperations) {
  BitVec a(100), b(100);
  a.set(1);
  a.set(50);
  b.set(50);
  b.set(99);
  BitVec u = a | b;
  EXPECT_EQ(u.count(), 3u);
  BitVec i = a & b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(50));
  EXPECT_TRUE(i.is_subset_of(a));
  EXPECT_TRUE(i.is_subset_of(b));
  EXPECT_TRUE(a.intersects(b));
  a.and_not(b);
  EXPECT_FALSE(a.test(50));
  EXPECT_TRUE(a.test(1));
}

TEST(BitVec, EqualityAndHash) {
  BitVec a(65), b(65);
  a.set(64);
  b.set(64);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.reset(64);
  EXPECT_NE(a, b);
}

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

}  // namespace
}  // namespace rtcad

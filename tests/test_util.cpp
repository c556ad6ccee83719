#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "util/check.hpp"
#include "util/fsio.hpp"
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

}  // namespace
}  // namespace rtcad

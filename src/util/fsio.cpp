#include "util/fsio.hpp"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace rtcad {

std::optional<std::string> read_file_if_exists(const std::string& path) {
  // One open, judged by its errno. An existence check before or after it
  // races the store's atomic rename and a concurrent prune's unlink; the
  // open itself sees either a whole file or none.
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (!file) {
    if (errno == ENOENT || errno == ENOTDIR) return std::nullopt;
    throw Error("cannot open '" + path + "' for reading");
  }
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> closer(file,
                                                               &std::fclose);
  std::string text;
  char buf[1 << 16];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, file)) > 0;)
    text.append(buf, n);
  if (std::ferror(file)) throw Error("read error on '" + path + "'");
  return text;
}

std::string read_file(const std::string& path) {
  std::optional<std::string> text = read_file_if_exists(path);
  if (!text) throw Error("cannot open '" + path + "' for reading");
  return std::move(*text);
}

void atomic_write_file(const std::string& path, const std::string& bytes) {
  // Unique per process AND per call, so concurrent writers (cache store,
  // parallel checkpoints) never collide on the temporary name.
  static std::atomic<unsigned long long> counter{0};
  const std::string tmp =
      path + strprintf(".tmp.%ld.%llu",
                       static_cast<long>(::getpid()),
                       counter.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw Error("cannot open '" + tmp + "' for writing");
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw Error("write error on '" + tmp + "'");
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    throw Error("cannot rename '" + tmp + "' to '" + path +
                "': " + ec.message());
  }
}

}  // namespace rtcad

// MarkingArena: every reachable marking of one state graph in a single
// contiguous fixed-stride byte buffer. The seed representation paid a
// std::vector header plus a separate heap allocation per state — dominant
// above 10^6 states; here a state's marking is row `slot` of one flat
// array, a build appends one row per state (so slot == state id), and the
// whole marking store is one GrowBuf (util/growbuf.hpp), which a big graph
// extends in place instead of copying.
//
// The arena is also the build's visited set's key store. The visited table
// (stategraph.cpp) keeps only an 8-byte slot per state, a 32-bit hash tag
// and the state id, which is its row: a probe that matches the tag
// compares the candidate against row(id), and a regrow re-hashes rows
// 0..size-1 in id order instead of keeping hashes. So the explore loop
// appends each inserted state's row before the table's next probe.
//
// Two row formats, chosen per graph by StateGraph::build():
//
//  * bit rows, for 1-safe markings: place p is bit p % 64 of 64-bit word
//    p / 64, so a row is 8·⌈places/64⌉ bytes (16 for pipeline19's 76
//    places instead of 76);
//  * byte rows: one token count per place, stride = number of places.
//
// This module owns the encoding: encode() turns a Marking into a row and
// copy() decodes a row back. Everything else treats a row as `stride()`
// opaque bytes — hashed and compared, never read as token counts. The one
// property others rely on is that a bit row is a place set: the explore
// loop fires transitions with word-wise AND/OR against masks written by
// encode_set() (stategraph.cpp).
//
// Ownership: the root (build) StateGraph owns the arena through a
// shared_ptr; graphs produced by filtered() share it and address rows
// through their root state ids, so a reduction chain adds zero marking
// copies no matter how many rounds it runs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "stg/stg.hpp"
#include "util/check.hpp"
#include "util/growbuf.hpp"

namespace rtcad {

class MarkingArena {
 public:
  enum class Format { kBytes, kBits };

  MarkingArena() = default;
  MarkingArena(int places, Format format)
      : places_(places),
        format_(format),
        stride_(format == Format::kBits ? 8 * ((places + 63) / 64) : places) {
    RTCAD_EXPECTS(places >= 0);
  }

  /// Bytes per row.
  int stride() const { return stride_; }
  std::size_t size() const { return count_; }
  /// Bytes held by the marking rows — the arena half of the memory gauge
  /// (states × stride).
  std::size_t bytes() const { return data_.size(); }

  /// Write `m` (one token count per place) as a row of stride() bytes at
  /// `out`. Bit rows require every count to be 0 or 1.
  void encode(const Marking& m, std::uint8_t* out) const {
    RTCAD_EXPECTS(m.size() == static_cast<std::size_t>(places_));
    if (format_ == Format::kBytes) {
      std::copy(m.begin(), m.end(), out);
      return;
    }
    for (int w = 0; w * 64 < places_; ++w) {
      std::uint64_t word = 0;
      for (int b = 0; b < 64 && w * 64 + b < places_; ++b) {
        const std::uint8_t tokens = m[static_cast<std::size_t>(w * 64 + b)];
        RTCAD_EXPECTS(tokens <= 1);
        word |= std::uint64_t{tokens} << b;
      }
      std::memcpy(out + 8 * w, &word, 8);
    }
  }

  /// Write the bit row of a place set (one token on each listed place) at
  /// `out`. Bit rows only; a place listed twice is a precondition failure.
  void encode_set(const std::vector<int>& places, std::uint8_t* out) const {
    RTCAD_EXPECTS(format_ == Format::kBits);
    std::fill_n(out, stride_, 0);
    for (int p : places) {
      std::uint64_t word;
      std::memcpy(&word, out + 8 * (p / 64), 8);
      const std::uint64_t bit = std::uint64_t{1} << (p % 64);
      RTCAD_EXPECTS(!(word & bit));
      word |= bit;
      std::memcpy(out + 8 * (p / 64), &word, 8);
    }
  }

  /// Append one row (exactly `stride` bytes); returns its slot.
  std::uint32_t append(const std::uint8_t* row) {
    data_.append(row, static_cast<std::size_t>(stride_));
    return count_++;
  }

  /// Row `slot`, valid until the next append (which may move the buffer).
  const std::uint8_t* row(std::uint32_t slot) const {
    return data_.data() + static_cast<std::size_t>(slot) * stride_;
  }

  /// Word by word when the stride is a multiple of 8 (every bit row), so
  /// the visited table's probe makes no memcmp call. GCC's -Warray-bounds
  /// cannot see that the word loop never runs for a caller's row shorter
  /// than 8 bytes, and flags it where such a row is a local array.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
  bool row_equals(std::uint32_t slot, const std::uint8_t* r) const {
    const std::uint8_t* a = row(slot);
    if (stride_ % 8 != 0)
      return std::memcmp(a, r, static_cast<std::size_t>(stride_)) == 0;
    for (int i = 0; i < stride_; i += 8) {
      std::uint64_t x, y;
      std::memcpy(&x, a + i, 8);
      std::memcpy(&y, r + i, 8);
      if (x != y) return false;
    }
    return true;
  }
#pragma GCC diagnostic pop

  /// Decode row `slot` back into token counts.
  Marking copy(std::uint32_t slot) const {
    const std::uint8_t* r = row(slot);
    if (format_ == Format::kBytes) return Marking(r, r + stride_);
    Marking m(static_cast<std::size_t>(places_));
    for (int w = 0; w * 64 < places_; ++w) {
      std::uint64_t word;
      std::memcpy(&word, r + 8 * w, 8);
      for (int b = 0; b < 64 && w * 64 + b < places_; ++b)
        m[static_cast<std::size_t>(w * 64 + b)] =
            static_cast<std::uint8_t>((word >> b) & 1);
    }
    return m;
  }

 private:
  int places_ = 0;
  Format format_ = Format::kBytes;
  int stride_ = 0;
  std::uint32_t count_ = 0;
  GrowBuf<std::uint8_t> data_;
};

}  // namespace rtcad

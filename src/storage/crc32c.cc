#include "storage/crc32c.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace kbtim {
namespace crc32c {
namespace {

// Reflected Castagnoli polynomial.
constexpr uint32_t kPoly = 0x82F63B78u;

struct Tables {
  uint32_t t[8][256];

  Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? kPoly ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int s = 1; s < 8; ++s) {
        t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
      }
    }
  }
};

const Tables& T() {
  static const Tables tables;
  return tables;
}

#if defined(__x86_64__)

// The hardware kernel splits long inputs into three adjacent streams: the
// crc32 instruction has a latency of three cycles and a throughput of one,
// so three independent dependency chains keep it busy. The partial CRCs
// are joined with ZeroShift, which advances a CRC register over a stream's
// length of zero bytes. Long streams amortize the join (a few table
// lookups); short ones cover what a long round leaves, down to 3 x 256
// bytes, before the single-stream tail.
constexpr size_t kLongStream = 4096;
constexpr size_t kShortStream = 256;

// Advancing a raw CRC register over a run of zero bytes is linear over
// GF(2), so it is fixed by the images of the 32 unit registers, tabulated
// here one byte of the register at a time.
struct ZeroShift {
  uint32_t t[4][256];

  explicit ZeroShift(size_t zero_bytes) {
    const Tables& tb = T();
    uint32_t image[32];
    for (int bit = 0; bit < 32; ++bit) {
      uint32_t c = uint32_t{1} << bit;
      for (size_t i = 0; i < zero_bytes; ++i) {
        c = (c >> 8) ^ tb.t[0][c & 0xFFu];
      }
      image[bit] = c;
    }
    for (int b = 0; b < 4; ++b) {
      for (uint32_t v = 0; v < 256; ++v) {
        uint32_t x = 0;
        for (int j = 0; j < 8; ++j) {
          if ((v >> j) & 1u) x ^= image[8 * b + j];
        }
        t[b][v] = x;
      }
    }
  }

  uint32_t operator()(uint32_t c) const {
    return t[0][c & 0xFFu] ^ t[1][(c >> 8) & 0xFFu] ^
           t[2][(c >> 16) & 0xFFu] ^ t[3][c >> 24];
  }
};

// Folds 3 x `stream` bytes per round into `c` while that many remain.
__attribute__((target("sse4.2"))) inline void ThreeStreams(
    size_t stream, const ZeroShift& shift, uint64_t& c, const uint8_t*& p,
    size_t& n) {
  while (n >= 3 * stream) {
    uint64_t c1 = 0;
    uint64_t c2 = 0;
    for (const uint8_t* end = p + stream; p < end; p += 8) {
      uint64_t w0, w1, w2;
      std::memcpy(&w0, p, 8);
      std::memcpy(&w1, p + stream, 8);
      std::memcpy(&w2, p + 2 * stream, 8);
      c = _mm_crc32_u64(c, w0);
      c1 = _mm_crc32_u64(c1, w1);
      c2 = _mm_crc32_u64(c2, w2);
    }
    c = shift(static_cast<uint32_t>(c)) ^ c1;
    c = shift(static_cast<uint32_t>(c)) ^ c2;
    p += 2 * stream;
    n -= 3 * stream;
  }
}

__attribute__((target("sse4.2"))) uint32_t ExtendHardware(
    uint32_t crc, const void* data, size_t n) {
  static const ZeroShift long_shift(kLongStream);
  static const ZeroShift short_shift(kShortStream);
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t c = crc ^ 0xFFFFFFFFu;

  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    c = _mm_crc32_u8(static_cast<uint32_t>(c), *p++);
    --n;
  }
  ThreeStreams(kLongStream, long_shift, c, p, n);
  ThreeStreams(kShortStream, short_shift, c, p, n);
  while (n >= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    c = _mm_crc32_u64(c, w);
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    c = _mm_crc32_u8(static_cast<uint32_t>(c), *p++);
    --n;
  }
  return static_cast<uint32_t>(c) ^ 0xFFFFFFFFu;
}

#endif  // __x86_64__

using ExtendFn = uint32_t (*)(uint32_t, const void*, size_t);

ExtendFn Kernel() {
  static const ExtendFn kernel = [] {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2")) return &ExtendHardware;
#endif
    return &internal::ExtendPortable;
  }();
  return kernel;
}

}  // namespace

uint32_t Extend(uint32_t crc, const void* data, size_t n) {
  return Kernel()(crc, data, n);
}

namespace internal {

uint32_t ExtendPortable(uint32_t crc, const void* data, size_t n) {
  const Tables& tb = T();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;

  // Byte-at-a-time until the pointer is 8-byte aligned.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    c = (c >> 8) ^ tb.t[0][(c ^ *p++) & 0xFFu];
    --n;
  }
  // Slice-by-8: fold one 64-bit word per iteration. The memcpy load is
  // little-endian; the table construction assumes it (x86-64/AArch64).
  while (n >= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    w ^= c;
    c = tb.t[7][w & 0xFFu] ^ tb.t[6][(w >> 8) & 0xFFu] ^
        tb.t[5][(w >> 16) & 0xFFu] ^ tb.t[4][(w >> 24) & 0xFFu] ^
        tb.t[3][(w >> 32) & 0xFFu] ^ tb.t[2][(w >> 40) & 0xFFu] ^
        tb.t[1][(w >> 48) & 0xFFu] ^ tb.t[0][(w >> 56) & 0xFFu];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    c = (c >> 8) ^ tb.t[0][(c ^ *p++) & 0xFFu];
    --n;
  }
  return c ^ 0xFFFFFFFFu;
}

bool HardwareSelected() { return Kernel() != &ExtendPortable; }

}  // namespace internal
}  // namespace crc32c
}  // namespace kbtim

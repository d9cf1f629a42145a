// Byte-at-a-time reference decoders for the batch kernels in
// storage/decode_kernels: a shift-register bit unpack and a lane-by-lane
// group-varint decode. They share no code with the kernels, so tests
// decode the same bytes through both and require identical results.
#ifndef KBTIM_TESTS_TESTING_SCALAR_DECODE_H_
#define KBTIM_TESTS_TESTING_SCALAR_DECODE_H_

#include <cstddef>
#include <cstdint>

namespace kbtim {
namespace testing {

/// Unpacks n values of `bits` bits (little-endian bit order, BitPack's
/// layout) from p with `avail` readable bytes. Returns the bytes consumed,
/// or 0 when `avail` is too small — BitUnpack's contract.
inline size_t ScalarBitUnpack(const char* p, size_t avail, size_t n,
                              uint32_t bits, uint32_t* out) {
  if (bits == 0) {
    for (size_t i = 0; i < n; ++i) out[i] = 0;
    return 0;
  }
  const size_t need = (n * bits + 7) / 8;
  if (avail < need) return 0;
  const uint32_t mask =
      bits >= 32 ? ~uint32_t{0} : ((uint32_t{1} << bits) - 1);
  uint64_t buffer = 0;
  uint32_t filled = 0;
  size_t consumed = 0;
  for (size_t i = 0; i < n; ++i) {
    while (filled < bits) {
      buffer |= static_cast<uint64_t>(static_cast<uint8_t>(p[consumed++]))
                << filled;
      filled += 8;
    }
    out[i] = static_cast<uint32_t>(buffer) & mask;
    buffer >>= bits;
    filled -= bits;
  }
  return need;
}

/// Decodes `count` group-varint values from [p, limit) into out, one byte
/// at a time. Returns the pointer past the last payload byte, or nullptr
/// on truncation — GroupVarintDecode's contract.
inline const char* ScalarGroupVarintDecode(const char* p, const char* limit,
                                           size_t count, uint32_t* out) {
  size_t produced = 0;
  while (produced < count) {
    if (p >= limit) return nullptr;
    const uint8_t control = static_cast<uint8_t>(*p++);
    const size_t lanes = count - produced < 4 ? count - produced : 4;
    for (size_t j = 0; j < lanes; ++j) {
      const uint32_t bytes = ((control >> (2 * j)) & 3) + 1;
      if (p + bytes > limit) return nullptr;
      uint32_t v = 0;
      for (uint32_t b = 0; b < bytes; ++b) {
        v |= static_cast<uint32_t>(static_cast<uint8_t>(p[b])) << (8 * b);
      }
      p += bytes;
      out[produced + j] = v;
    }
    produced += lanes;
  }
  return p;
}

}  // namespace testing
}  // namespace kbtim

#endif  // KBTIM_TESTS_TESTING_SCALAR_DECODE_H_

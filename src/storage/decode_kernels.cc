#include "storage/decode_kernels.h"

#include <cstring>

#include "storage/bitpacking.h"
#include "storage/varint.h"

namespace kbtim {
namespace {

inline uint64_t Load64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint32_t Load32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Scalar shift-register unpack from bit `start_bit`: the tail path of
/// BitUnpack, which never loads past the packed bytes.
void UnpackScalar(const char* p, size_t n, uint32_t bits, uint32_t mask,
                  uint64_t start_bit, uint32_t* out) {
  const char* q = p + (start_bit >> 3);
  uint64_t buffer = 0;
  uint32_t filled = 0;
  // Pre-load the partial byte the first value starts in.
  uint32_t skip = static_cast<uint32_t>(start_bit & 7);
  if (skip != 0) {
    buffer = static_cast<uint8_t>(*q++) >> skip;
    filled = 8 - skip;
  }
  for (size_t i = 0; i < n; ++i) {
    while (filled < bits) {
      buffer |= static_cast<uint64_t>(static_cast<uint8_t>(*q++)) << filled;
      filled += 8;
    }
    out[i] = static_cast<uint32_t>(buffer) & mask;
    buffer >>= bits;
    filled -= bits;
  }
}

}  // namespace

size_t BitUnpack(const char* p, size_t avail, size_t n, uint32_t bits,
                 uint32_t* out) {
  if (bits == 0) {
    std::memset(out, 0, n * sizeof(uint32_t));
    return 0;
  }
  const size_t need = BitPackedSize(n, bits);
  if (avail < need) return 0;
  if (n == 0) return need;

  // Byte-aligned widths decode as plain little-endian widening copies —
  // the compiler vectorizes these loops.
  if (bits == 32) {
    std::memcpy(out, p, n * sizeof(uint32_t));
    return need;
  }
  if (bits == 16) {
    for (size_t i = 0; i < n; ++i) {
      uint16_t v;
      std::memcpy(&v, p + 2 * i, 2);
      out[i] = v;
    }
    return need;
  }
  if (bits == 8) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = static_cast<uint8_t>(p[i]);
    }
    return need;
  }

  const uint32_t mask = (uint32_t{1} << bits) - 1;
  // Generic kernel: each value is extracted with ONE unaligned 64-bit load
  // at its starting byte plus a shift and mask (bits <= 25 guarantees the
  // value fits the loaded word even at bit offset 7; wider widths fall
  // back below). The loop is branch-free and unrolled 4x.
  //
  // A value starting at bit b reads bytes [b/8, b/8 + 8); stop the fast
  // path early enough that no load overruns `avail`.
  size_t fast = 0;
  if (bits <= 25 && avail >= 8) {
    // Value i loads bytes [(i*bits)/8, +8); when 8 slack bytes follow the
    // packed data every load is safe (the common case — short lists parsed
    // out of a large partition buffer — skips the division entirely).
    if (avail >= need + 8) {
      fast = n;
    } else {
      const uint64_t max_idx = (8 * (avail - 8) + 7) / bits;
      fast = max_idx + 1 < n ? static_cast<size_t>(max_idx + 1) : n;
    }
    size_t i = 0;
    for (; i + 4 <= fast; i += 4) {
      const uint64_t b0 = static_cast<uint64_t>(i) * bits;
      const uint64_t b1 = b0 + bits;
      const uint64_t b2 = b1 + bits;
      const uint64_t b3 = b2 + bits;
      out[i] = static_cast<uint32_t>(Load64(p + (b0 >> 3)) >> (b0 & 7)) &
               mask;
      out[i + 1] =
          static_cast<uint32_t>(Load64(p + (b1 >> 3)) >> (b1 & 7)) & mask;
      out[i + 2] =
          static_cast<uint32_t>(Load64(p + (b2 >> 3)) >> (b2 & 7)) & mask;
      out[i + 3] =
          static_cast<uint32_t>(Load64(p + (b3 >> 3)) >> (b3 & 7)) & mask;
    }
    for (; i < fast; ++i) {
      const uint64_t b = static_cast<uint64_t>(i) * bits;
      out[i] = static_cast<uint32_t>(Load64(p + (b >> 3)) >> (b & 7)) & mask;
    }
  }
  if (fast < n) {
    // Tail (or widths 26..31): scalar shift register from the exact bit
    // position, so no load ever touches past `avail`.
    UnpackScalar(p, n - fast, bits, mask, static_cast<uint64_t>(fast) * bits,
                 out + fast);
  }
  return need;
}

const char* PforDecodeList(const char* p, const char* limit,
                           std::vector<uint32_t>& buf, size_t* out_len) {
  buf.clear();
  return PforDecodeAppend(p, limit, buf, out_len);
}

void GroupVarintEncode(std::span<const uint32_t> values, std::string* out) {
  size_t i = 0;
  char payload[16];
  for (; i + 4 <= values.size(); i += 4) {
    uint8_t control = 0;
    size_t len = 0;
    for (size_t j = 0; j < 4; ++j) {
      const uint32_t v = values[i + j];
      const uint32_t bytes = v < (1u << 8)    ? 1
                             : v < (1u << 16) ? 2
                             : v < (1u << 24) ? 3
                                              : 4;
      control |= static_cast<uint8_t>((bytes - 1) << (2 * j));
      std::memcpy(payload + len, &v, 4);  // little-endian; keep low `bytes`
      len += bytes;
    }
    out->push_back(static_cast<char>(control));
    out->append(payload, len);
  }
  if (i < values.size()) {
    // Partial final group: same control byte, unused lanes stay length 1
    // in the control bits but emit no payload (the count delimits them).
    uint8_t control = 0;
    size_t len = 0;
    for (size_t j = 0; i + j < values.size(); ++j) {
      const uint32_t v = values[i + j];
      const uint32_t bytes = v < (1u << 8)    ? 1
                             : v < (1u << 16) ? 2
                             : v < (1u << 24) ? 3
                                              : 4;
      control |= static_cast<uint8_t>((bytes - 1) << (2 * j));
      std::memcpy(payload + len, &v, 4);
      len += bytes;
    }
    out->push_back(static_cast<char>(control));
    out->append(payload, len);
  }
}

namespace {

constexpr uint32_t kLenMask[5] = {0, 0xFFu, 0xFFFFu, 0xFFFFFFu, 0xFFFFFFFFu};

/// Scalar group decode: byte-accumulates each lane and never reads past
/// the exact payload bytes — the fast kernel's tail.
const char* GroupDecodeScalar(const char* p, const char* limit, size_t count,
                              uint32_t* out) {
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

}  // namespace

const char* GroupVarintDecode(const char* p, const char* limit, size_t count,
                              uint32_t* out) {
  // Fast path: a full group needs at most 1 + 16 payload bytes; each lane
  // decodes with one unaligned 32-bit load + mask. Stop before any load
  // could cross `limit` and finish with the exact scalar decoder.
  size_t produced = 0;
  while (produced + 4 <= count && p + 1 + 16 + 3 <= limit) {
    const uint8_t control = static_cast<uint8_t>(*p++);
    const uint32_t l0 = (control & 3) + 1;
    const uint32_t l1 = ((control >> 2) & 3) + 1;
    const uint32_t l2 = ((control >> 4) & 3) + 1;
    const uint32_t l3 = ((control >> 6) & 3) + 1;
    out[produced] = Load32(p) & kLenMask[l0];
    p += l0;
    out[produced + 1] = Load32(p) & kLenMask[l1];
    p += l1;
    out[produced + 2] = Load32(p) & kLenMask[l2];
    p += l2;
    out[produced + 3] = Load32(p) & kLenMask[l3];
    p += l3;
    produced += 4;
  }
  return GroupDecodeScalar(p, limit, count - produced, out + produced);
}

}  // namespace kbtim

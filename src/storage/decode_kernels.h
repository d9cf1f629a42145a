// Batch integer-decode kernels: the hot loops under the index codecs.
//
// The per-integer decode paths (LEB128 byte-at-a-time, bit-unpack with a
// shift register) cost a branch per byte; on the cold query path they sit
// between the disk read and the NRA loop, so they gate end-to-end latency.
// These kernels dispatch ONCE per block and then run branch-free inner
// loops over whole groups:
//   * BitUnpack (declared in storage/bitpacking.h) — fixed-width unpack
//     via unaligned 64-bit loads, one load+shift+mask per value (unrolled,
//     auto-vectorizable), with byte-granular specializations for widths
//     8/16/32;
//   * GroupVarintEncode/Decode — Google-style group varint: one control
//     byte per 4 values (2 bits each = byte length - 1) followed by the
//     1-4 byte little-endian payloads, decoded with a masked 32-bit load
//     per value instead of a byte loop.
// A byte-wise loop finishes each kernel's tail, where a wide load could
// cross the end of the buffer. tests/testing/scalar_decode.h keeps the
// byte-at-a-time forms as the oracle the tests hold these kernels to.
#ifndef KBTIM_STORAGE_DECODE_KERNELS_H_
#define KBTIM_STORAGE_DECODE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "storage/bitpacking.h"
#include "storage/varint.h"

namespace kbtim {

/// Unrolled varint fast path: with 5 readable bytes there is no per-byte
/// limit check; the general decoder handles buffer tails. Byte-identical
/// results to GetVarint32 on valid input.
inline const char* FastVarint32(const char* p, const char* limit,
                                uint32_t* v) {
  if (limit - p >= 5) {
    uint32_t b = static_cast<uint8_t>(p[0]);
    if (b < 0x80) {
      *v = b;
      return p + 1;
    }
    uint32_t result = b & 0x7F;
    b = static_cast<uint8_t>(p[1]);
    if (b < 0x80) {
      *v = result | (b << 7);
      return p + 2;
    }
    result |= (b & 0x7F) << 7;
    b = static_cast<uint8_t>(p[2]);
    if (b < 0x80) {
      *v = result | (b << 14);
      return p + 3;
    }
    result |= (b & 0x7F) << 14;
    b = static_cast<uint8_t>(p[3]);
    if (b < 0x80) {
      *v = result | (b << 21);
      return p + 4;
    }
    result |= (b & 0x7F) << 21;
    b = static_cast<uint8_t>(p[4]);
    if (b > 0x0F) return nullptr;  // overflow
    *v = result | (b << 28);
    return p + 5;
  }
  return GetVarint32(p, limit, v);
}

inline const char* FastVarint64(const char* p, const char* limit,
                                uint64_t* v) {
  if (p < limit) {
    const auto byte = static_cast<uint8_t>(*p);
    if (byte < 0x80) {
      *v = byte;
      return p + 1;
    }
  }
  return GetVarint64(p, limit, v);
}

/// Appends the group-varint encoding of `values` to *out: full groups of 4
/// as control byte + payloads, then a final partial group (same control
/// byte layout, unused lanes encode nothing). Self-delimiting only
/// together with a known count.
void GroupVarintEncode(std::span<const uint32_t> values, std::string* out);

/// Decodes `count` group-varint values from [p, limit) into out. Returns
/// the pointer just past the last payload byte, or nullptr on truncation.
/// Full groups take the masked-load fast path while 20 readable bytes
/// remain; the exact byte-wise decoder finishes the rest.
const char* GroupVarintDecode(const char* p, const char* limit,
                              size_t count, uint32_t* out);

namespace decode_detail {
inline uint64_t Load64(const char* p) {
  uint64_t v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}
}  // namespace decode_detail

/// Decodes ONE PforCodec-framed list starting at p (count varint, then
/// 128-value blocks of width byte + packed payload + exceptions),
/// APPENDING the values to `out` — the monomorphic hot path under the
/// index partition decoders, which parse thousands of few-element lists
/// per partition and cannot afford the virtual-dispatch + sub-view +
/// temp-buffer-then-copy framing of PforCodec::Decode (defined inline so
/// the whole decode stack flattens into the partition loops). `limit` is
/// the enclosing buffer's end (bounds checks run against it, so no
/// per-list sub-view is needed); block bodies with 8 slack bytes before
/// `limit` unpack inline, branch-free per value. Returns the pointer just
/// past the list and sets *added to the value count, or returns nullptr
/// on corruption (out is restored to its prior size). Appended values are
/// bit-identical to PforCodec::Decode on the same bytes.
inline const char* PforDecodeAppend(const char* p, const char* limit,
                                    std::vector<uint32_t>& out,
                                    size_t* added) {
  uint64_t count = 0;
  p = FastVarint64(p, limit, &count);
  // Anti-OOM sanity bound before the resize: every 128-value block costs
  // at least 2 bytes (width byte + exception count), even at width 0.
  if (p == nullptr ||
      count > static_cast<uint64_t>(limit - p) * 64 + 128) {
    return nullptr;
  }
  const size_t old_size = out.size();
  out.resize(old_size + count);
  uint32_t* dst = out.data() + old_size;
  size_t produced = 0;
  while (produced < count) {
    const size_t len = count - produced < 128 ? count - produced : 128;
    if (p >= limit) break;
    const uint32_t bits = static_cast<uint8_t>(*p++);
    if (bits > 32) break;
    if (bits == 0) {
      __builtin_memset(dst + produced, 0, len * sizeof(uint32_t));
    } else {
      const size_t need = (len * bits + 7) >> 3;
      if (bits <= 25 && static_cast<size_t>(limit - p) >= need + 8) {
        // Inline unpack: one unaligned 64-bit load + shift + mask per
        // value (the 8 slack bytes make every load safe). This is the
        // dominant case — short lists parsed out of a large buffer.
        const uint32_t mask = (uint32_t{1} << bits) - 1;
        uint32_t* o = dst + produced;
        uint64_t bit = 0;
        size_t i = 0;
        for (; i + 4 <= len; i += 4, bit += 4 * bits) {
          using decode_detail::Load64;
          o[i] = static_cast<uint32_t>(Load64(p + (bit >> 3)) >>
                                       (bit & 7)) &
                 mask;
          o[i + 1] = static_cast<uint32_t>(
                         Load64(p + ((bit + bits) >> 3)) >>
                         ((bit + bits) & 7)) &
                     mask;
          o[i + 2] = static_cast<uint32_t>(
                         Load64(p + ((bit + 2 * bits) >> 3)) >>
                         ((bit + 2 * bits) & 7)) &
                     mask;
          o[i + 3] = static_cast<uint32_t>(
                         Load64(p + ((bit + 3 * bits) >> 3)) >>
                         ((bit + 3 * bits) & 7)) &
                     mask;
        }
        for (; i < len; ++i, bit += bits) {
          o[i] = static_cast<uint32_t>(
                     decode_detail::Load64(p + (bit >> 3)) >> (bit & 7)) &
                 mask;
        }
        p += need;
      } else {
        const size_t used = BitUnpack(
            p, static_cast<size_t>(limit - p), len, bits, dst + produced);
        if (used == 0) break;
        p += used;
      }
    }
    uint32_t num_exceptions = 0;
    p = FastVarint32(p, limit, &num_exceptions);
    if (p == nullptr) break;
    bool bad_exception = false;
    for (uint32_t e = 0; e < num_exceptions; ++e) {
      uint32_t pos = 0, overflow = 0;
      p = FastVarint32(p, limit, &pos);
      if (p == nullptr) break;
      p = FastVarint32(p, limit, &overflow);
      if (p == nullptr || pos >= len) {
        bad_exception = p == nullptr || pos >= len;
        break;
      }
      dst[produced + pos] |= bits >= 32 ? 0 : overflow << bits;
    }
    if (p == nullptr || bad_exception) break;
    produced += len;
  }
  if (produced != count) {
    out.resize(old_size);  // corruption: leave the caller's data intact
    return nullptr;
  }
  *added = count;
  return p;
}

/// PforDecodeAppend into buf[0, *out_len) (cleared first).
const char* PforDecodeList(const char* p, const char* limit,
                           std::vector<uint32_t>& buf, size_t* out_len);

}  // namespace kbtim

#endif  // KBTIM_STORAGE_DECODE_KERNELS_H_

// Fixed-width little-endian bit packing, the kernel under the PFOR codec.
#ifndef KBTIM_STORAGE_BITPACKING_H_
#define KBTIM_STORAGE_BITPACKING_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace kbtim {

/// Bytes needed to pack n values at `bits` bits each.
size_t BitPackedSize(size_t n, uint32_t bits);

/// Appends the low `bits` bits of each of the n values to *out
/// (little-endian bit order). `bits` must be <= 32. Values are masked; the
/// caller handles overflow (PFOR stores overflow as exceptions).
void BitPack(const uint32_t* values, size_t n, uint32_t bits,
             std::string* out);

/// Unpacks n values of `bits` bits from p (with `avail` readable bytes)
/// into out. Returns the number of bytes consumed, or 0 if `avail` is too
/// small. Requires bits <= 32. Defined with the other batch decode
/// kernels in storage/decode_kernels.cc.
size_t BitUnpack(const char* p, size_t avail, size_t n, uint32_t bits,
                 uint32_t* out);

}  // namespace kbtim

#endif  // KBTIM_STORAGE_BITPACKING_H_

// CRC32C (Castagnoli) checksums for the on-disk index formats and the
// network frames.
//
// Two kernels compute the same function. On x86-64 CPUs with SSE4.2 the
// `crc32` instruction folds 8 bytes per instruction, and long buffers run
// three independent streams that are combined at the end, so checksumming
// costs a small fraction of the memcpy that produced the bytes. Elsewhere a
// portable slice-by-8 kernel (eight 256-entry tables, 8 bytes per
// iteration) is used. The kernel is chosen once, from the CPU, on the first
// call; both give identical values, so every stored checksum stays valid
// whichever machine wrote or reads it.
//
// Checksums are stored *masked* (RocksDB idiom): rotating and offsetting
// the raw CRC prevents the degenerate case where a file region that itself
// contains CRCs is re-CRC'd to a fixed point.
#ifndef KBTIM_STORAGE_CRC32C_H_
#define KBTIM_STORAGE_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace kbtim {
namespace crc32c {

/// Extends `crc` — the checksum of some preceding byte string A — with
/// data[0, n), returning the checksum of the concatenation A + data.
/// Extend(Extend(0, a), b) == Value(a + b).
uint32_t Extend(uint32_t crc, const void* data, size_t n);

/// Checksum of data[0, n).
inline uint32_t Value(const void* data, size_t n) {
  return Extend(0, data, n);
}

/// Masks a raw CRC for storage.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xA282EAD8u;
}

/// Inverse of Mask.
inline uint32_t Unmask(uint32_t masked) {
  const uint32_t rot = masked - 0xA282EAD8u;
  return (rot >> 17) | (rot << 15);
}

namespace internal {

/// The portable slice-by-8 kernel, with Extend's contract. It is the
/// fallback on CPUs without a CRC32C instruction and the reference the
/// tests hold the hardware kernel to.
uint32_t ExtendPortable(uint32_t crc, const void* data, size_t n);

/// True when Extend runs on the SSE4.2 instruction on this CPU.
bool HardwareSelected();

}  // namespace internal

}  // namespace crc32c
}  // namespace kbtim

#endif  // KBTIM_STORAGE_CRC32C_H_
